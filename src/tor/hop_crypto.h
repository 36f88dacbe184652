// Per-hop circuit crypto state shared (in mirrored form) by the client and
// one relay: two stream ciphers (one per direction) and two rolling digests.
// The cipher streams advance across cells, so both sides must process every
// relay cell for this hop exactly once and in order — guaranteed by the
// transport's FIFO delivery.
#pragma once

#include "cells/relay_payload.h"
#include "crypto/chacha.h"
#include "crypto/handshake.h"

namespace ting::tor {

class HopCrypto {
 public:
  explicit HopCrypto(const crypto::HopKeys& keys)
      : forward_(keys.forward_key, zero_nonce()),
        backward_(keys.backward_key, zero_nonce()),
        forward_digest_(keys.forward_digest_seed),
        backward_digest_(keys.backward_digest_seed) {}

  /// Apply one layer of the forward-direction keystream (encrypts at the
  /// client, decrypts at the relay — same XOR).
  void apply_forward(Bytes& payload) {
    forward_.apply(std::span<std::uint8_t>(payload.data(), payload.size()));
  }
  /// Apply one layer of the backward-direction keystream.
  void apply_backward(Bytes& payload) {
    backward_.apply(std::span<std::uint8_t>(payload.data(), payload.size()));
  }

  cells::RollingDigest& forward_digest() { return forward_digest_; }
  cells::RollingDigest& backward_digest() { return backward_digest_; }

 private:
  static crypto::Nonce zero_nonce() {
    crypto::Nonce n{};
    return n;
  }
  crypto::ChaChaCipher forward_;
  crypto::ChaChaCipher backward_;
  cells::RollingDigest forward_digest_;
  cells::RollingDigest backward_digest_;
};

}  // namespace ting::tor
