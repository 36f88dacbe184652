#include "crypto/chacha.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace ting::crypto {

namespace {

inline std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = rotl32(d, 16);
  c += d; b ^= c; b = rotl32(b, 12);
  a += b; d ^= a; d = rotl32(d, 8);
  c += d; b ^= c; b = rotl32(b, 7);
}

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

// Four 32-bit lanes: one SSE2 register on x86-64, generic code elsewhere.
typedef std::uint32_t u32x4 __attribute__((vector_size(16)));
typedef std::uint8_t u8x16 __attribute__((vector_size(16)));

inline u32x4 rotl32x4(u32x4 x, int k) { return (x << k) | (x >> (32 - k)); }

inline void quarter_round4(u32x4& a, u32x4& b, u32x4& c, u32x4& d) {
  a += b; d ^= a; d = rotl32x4(d, 16);
  c += d; b ^= c; b = rotl32x4(b, 12);
  a += b; d ^= a; d = rotl32x4(d, 8);
  c += d; b ^= c; b = rotl32x4(b, 7);
}

inline void store_words_le(std::uint8_t* p, u32x4 v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    for (int i = 0; i < 4; ++i) store32_le(p + 4 * i, v[i]);
  }
}

// Four consecutive keystream blocks, counters in[12] + 0..3 (each wrapping
// in 32 bits, like the scalar path's ++state[12]), written to out[0..255] in
// block order. Lane L of every vector is block L's state word, so the 20
// rounds are the scalar schedule run on four blocks at once; a 4x4
// transpose then turns lanes back into contiguous blocks.
void chacha_block4(const std::uint32_t in[16], std::uint8_t out[256]) {
  u32x4 x[16], s[16];
  for (int i = 0; i < 16; ++i) s[i] = u32x4{in[i], in[i], in[i], in[i]};
  s[12] += u32x4{0, 1, 2, 3};
  for (int i = 0; i < 16; ++i) x[i] = s[i];
  for (int round = 0; round < 10; ++round) {
    quarter_round4(x[0], x[4], x[8], x[12]);
    quarter_round4(x[1], x[5], x[9], x[13]);
    quarter_round4(x[2], x[6], x[10], x[14]);
    quarter_round4(x[3], x[7], x[11], x[15]);
    quarter_round4(x[0], x[5], x[10], x[15]);
    quarter_round4(x[1], x[6], x[11], x[12]);
    quarter_round4(x[2], x[7], x[8], x[13]);
    quarter_round4(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += s[i];
  for (int w = 0; w < 16; w += 4) {
    const u32x4 t0 = __builtin_shufflevector(x[w], x[w + 1], 0, 4, 1, 5);
    const u32x4 t1 = __builtin_shufflevector(x[w], x[w + 1], 2, 6, 3, 7);
    const u32x4 t2 = __builtin_shufflevector(x[w + 2], x[w + 3], 0, 4, 1, 5);
    const u32x4 t3 = __builtin_shufflevector(x[w + 2], x[w + 3], 2, 6, 3, 7);
    store_words_le(out + 4 * w, __builtin_shufflevector(t0, t2, 0, 1, 4, 5));
    store_words_le(out + 64 + 4 * w,
                   __builtin_shufflevector(t0, t2, 2, 3, 6, 7));
    store_words_le(out + 128 + 4 * w,
                   __builtin_shufflevector(t1, t3, 0, 1, 4, 5));
    store_words_le(out + 192 + 4 * w,
                   __builtin_shufflevector(t1, t3, 2, 3, 6, 7));
  }
}

// data[0..n) ^= ks[0..n), sixteen bytes at a time.
inline void xor_keystream(std::uint8_t* data, const std::uint8_t* ks,
                          std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    u8x16 v, k;
    std::memcpy(&v, data + i, 16);
    std::memcpy(&k, ks + i, 16);
    v ^= k;
    std::memcpy(data + i, &v, 16);
  }
  for (; i < n; ++i) data[i] ^= ks[i];
}

}  // namespace

void chacha_block(const std::uint32_t in[16], std::uint32_t out[16]) {
  std::uint32_t x[16];
  std::memcpy(x, in, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    // Column rounds.
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    // Diagonal rounds.
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) out[i] = x[i] + in[i];
}

ChaChaCipher::ChaChaCipher(const Key& key, const Nonce& nonce,
                           std::uint32_t counter) {
  // "expand 32-byte k" sigma constants.
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = load32_le(key.data() + 4 * i);
  state_[12] = counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = load32_le(nonce.data() + 4 * i);
}

void ChaChaCipher::apply(std::span<std::uint8_t> data) {
  std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // Consume any partial block left from a previous call.
  while (n > 0 && block_pos_ < 64) {
    *p++ ^= block_[block_pos_++];
    --n;
  }
  // Four blocks per kernel call. Only the blocks actually consumed advance
  // the counter, and a partly used last block is kept in block_ for the
  // next call, so the stream is the RFC's block-by-block keystream.
  // A 509-byte cell takes two calls.
  while (n > 0) {
    alignas(16) std::uint8_t ks[256];
    chacha_block4(state_, ks);
    const std::size_t take = std::min<std::size_t>(n, sizeof(ks));
    const std::size_t tail = take % 64;  // bytes used of a partial block
    xor_keystream(p, ks, take);
    state_[12] += static_cast<std::uint32_t>((take + 63) / 64);
    block_pos_ = 64;
    if (tail != 0) {
      std::memcpy(block_, ks + (take - tail), sizeof(block_));
      block_pos_ = tail;
    }
    p += take;
    n -= take;
  }
}

Bytes ChaChaCipher::transform(std::span<const std::uint8_t> data) {
  Bytes out(data.begin(), data.end());
  apply(out);
  return out;
}

}  // namespace ting::crypto
