// X25519 Diffie–Hellman scalar multiplication over Curve25519, implemented
// from scratch (5×51-bit limbs, Montgomery ladder), used by the ntor-style
// circuit handshake. Output matches RFC 7748: the §5.2 vectors (including
// the 1- and 1,000-iteration ladders) and the §6.1 Alice/Bob exchange are
// known-answer tests in tests/crypto_test.cpp, beside property tests of
// ladder determinism and DH commutativity over many random keypairs.
#pragma once

#include <array>
#include <cstdint>

namespace ting::crypto {

using X25519Key = std::array<std::uint8_t, 32>;

/// Scalar multiplication: out = scalar * point (u-coordinate only).
/// The scalar is clamped per the X25519 convention.
X25519Key x25519(const X25519Key& scalar, const X25519Key& point);

/// Scalar multiplication by the base point u = 9 (public key derivation).
X25519Key x25519_base(const X25519Key& scalar);

}  // namespace ting::crypto
