#include "crypto/hash.h"

#include <algorithm>
#include <cstring>

#include "crypto/chacha.h"

#include "util/assert.h"

namespace ting::crypto {

namespace {
inline std::uint32_t load32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
inline void store32_le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
}  // namespace

Hasher::Hasher() {
  // Initial state: the ASCII tag "TingHash sponge v1, 32-byte rate" — 32
  // bytes of distinct constants in the capacity+rate words.
  static const char tag[65] = "TingHash sponge v1 32B rate.....TingHash sponge v1 32B capacity";
  for (int i = 0; i < 16; ++i)
    state_[i] = load32_le(reinterpret_cast<const std::uint8_t*>(tag) + 4 * i);
}

void Hasher::absorb_block(const std::uint8_t* block) {
  // Overwrite-mode sponge: XOR the 32-byte block into the rate half, then
  // permute with the ChaCha block function.
  for (int i = 0; i < 8; ++i) state_[i] ^= load32_le(block + 4 * i);
  std::uint32_t out[16];
  chacha_block(state_, out);
  std::memcpy(state_, out, sizeof(state_));
}

void Hasher::update(std::span<const std::uint8_t> data) {
  TING_CHECK(!finalized_);
  total_len_ += data.size();
  std::size_t off = 0;
  // Top up a partially filled staging buffer first.
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), 32 - buf_len_);
    std::copy_n(data.begin(), take, buf_ + buf_len_);
    buf_len_ += take;
    off += take;
    if (buf_len_ == 32) {
      absorb_block(buf_);
      buf_len_ = 0;
    }
  }
  // Aligned to a block boundary: absorb straight from the input, skipping
  // the staging memcpy. Relay-cell digests hash 500+ bytes per call, so this
  // is the common path.
  while (data.size() - off >= 32) {
    absorb_block(data.data() + off);
    off += 32;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

void Hasher::update(const std::string& s) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Digest Hasher::finalize() {
  TING_CHECK(!finalized_);
  finalized_ = true;
  // Pad: 0x80, zeros, then the 64-bit length in the final block.
  if (buf_len_ > 32 - 1 - 8) {
    // No room for the length; emit the 0x80 block first.
    std::uint8_t first[32] = {0};
    std::memcpy(first, buf_, buf_len_);
    first[buf_len_] = 0x80;
    absorb_block(first);
    std::uint8_t second[32] = {0};
    for (int i = 0; i < 8; ++i)
      second[24 + i] = static_cast<std::uint8_t>(total_len_ >> (56 - 8 * i));
    absorb_block(second);
  } else {
    std::uint8_t block[32] = {0};
    std::memcpy(block, buf_, buf_len_);
    block[buf_len_] = 0x80;
    for (int i = 0; i < 8; ++i)
      block[24 + i] = static_cast<std::uint8_t>(total_len_ >> (56 - 8 * i));
    absorb_block(block);
  }
  // Squeeze 32 bytes from the rate half.
  Digest out;
  for (int i = 0; i < 8; ++i) store32_le(out.data() + 4 * i, state_[i]);
  return out;
}

Digest hash(std::span<const std::uint8_t> data) {
  Hasher h;
  h.update(data);
  return h.finalize();
}

Digest hash(const std::string& s) {
  Hasher h;
  h.update(s);
  return h.finalize();
}

Digest hmac(std::span<const std::uint8_t> key,
            std::span<const std::uint8_t> msg) {
  // Block size = 32 bytes (the sponge rate).
  std::uint8_t k[32] = {0};
  if (key.size() > 32) {
    Digest kd = hash(key);
    std::memcpy(k, kd.data(), 32);
  } else {
    // std::copy, not memcpy: an empty key may come with a null data().
    std::copy(key.begin(), key.end(), k);
  }
  std::uint8_t ipad[32], opad[32];
  for (int i = 0; i < 32; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Hasher inner;
  inner.update(std::span<const std::uint8_t>(ipad, 32));
  inner.update(msg);
  Digest inner_digest = inner.finalize();
  Hasher outer;
  outer.update(std::span<const std::uint8_t>(opad, 32));
  outer.update(std::span<const std::uint8_t>(inner_digest.data(), 32));
  return outer.finalize();
}

Bytes hkdf(std::span<const std::uint8_t> ikm, std::span<const std::uint8_t> salt,
           const std::string& info, std::size_t out_len) {
  // Extract.
  Digest prk = hmac(salt, ikm);
  // Expand.
  Bytes out;
  out.reserve(out_len);
  Bytes t;  // T(0) = empty
  std::uint8_t counter = 1;
  while (out.size() < out_len) {
    Bytes block = t;
    block.insert(block.end(), info.begin(), info.end());
    block.push_back(counter++);
    Digest d = hmac(std::span<const std::uint8_t>(prk.data(), prk.size()),
                    std::span<const std::uint8_t>(block.data(), block.size()));
    t.assign(d.begin(), d.end());
    const std::size_t take = std::min(t.size(), out_len - out.size());
    out.insert(out.end(), t.begin(), t.begin() + take);
  }
  return out;
}

}  // namespace ting::crypto
