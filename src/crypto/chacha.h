// ChaCha20 stream cipher.
//
// The ChaCha20 construction of RFC 8439 (16-word state, 20 rounds of
// quarter-rounds, 32-bit block counter, 96-bit nonce), implemented from
// scratch. It is used for the per-hop onion layers, so every relayed cell
// really is encrypted and decrypted once per hop — the relay "crypto cost"
// in the forwarding-delay model corresponds to real work. Output matches
// the RFC 8439 §2.3.2 and §2.4.2 vectors; those, a 32-bit counter-wrap
// golden and a split-apply property are pinned as known-answer tests in
// tests/crypto_test.cpp. The keystream is generated four blocks per kernel
// call (GCC vector extensions), for short inputs too; the bytes are those of
// the RFC's block-by-block keystream.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace ting::crypto {

inline constexpr std::size_t kKeyLen = 32;
inline constexpr std::size_t kNonceLen = 12;

using Key = std::array<std::uint8_t, kKeyLen>;
using Nonce = std::array<std::uint8_t, kNonceLen>;

/// The ChaCha permutation applied to a 16-word state (20 rounds, with the
/// feed-forward addition). Exposed for the sponge hash.
void chacha_block(const std::uint32_t in[16], std::uint32_t out[16]);

/// Stateful keystream cipher. Encrypting twice with the same starting
/// position is the identity (XOR stream), which is how onion layers peel.
class ChaChaCipher {
 public:
  ChaChaCipher(const Key& key, const Nonce& nonce, std::uint32_t counter = 0);

  /// XOR the keystream into `data` in place, advancing the stream position.
  void apply(std::span<std::uint8_t> data);

  /// Convenience: returns the transformed copy.
  Bytes transform(std::span<const std::uint8_t> data);

 private:
  std::uint32_t state_[16];
  std::uint8_t block_[64];
  std::size_t block_pos_ = 64;  // block_ exhausted
};

}  // namespace ting::crypto
