#include "crypto/x25519.h"

#include <cstring>

namespace ting::crypto {

namespace {

// Field element mod p = 2^255 - 19, radix 2^51, 5 limbs.
struct Fe {
  std::uint64_t v[5];
};

constexpr std::uint64_t kMask51 = (1ULL << 51) - 1;

Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }

Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

// a - b with a bias of 2p added to keep limbs non-negative. Inputs must be
// reduced (limbs < 2^52); output limbs stay < 2^54.
Fe fe_sub(const Fe& a, const Fe& b) {
  // 2p = (2^255 - 19) * 2, distributed per limb as (2^52 - 38, 2^52 - 2, ...).
  static const std::uint64_t two_p[5] = {
      0xfffffffffffdaULL, 0xffffffffffffeULL, 0xffffffffffffeULL,
      0xffffffffffffeULL, 0xffffffffffffeULL};
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + two_p[i] - b.v[i];
  return r;
}

// Carry-propagate so all limbs < 2^51 (plus a small excess folded via *19).
Fe fe_carry(const Fe& a) {
  Fe r = a;
  std::uint64_t c;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4; ++i) {
      c = r.v[i] >> 51;
      r.v[i] &= kMask51;
      r.v[i + 1] += c;
    }
    c = r.v[4] >> 51;
    r.v[4] &= kMask51;
    r.v[0] += c * 19;
  }
  return r;
}

// Carry the five u128 column sums of a product down to 51-bit limbs, with
// the overflow past 2^255 folded back in as *19. Shared by fe_mul and
// fe_sq. Output limbs are < 2^51 except limb 1, which may exceed it by a
// small carry.
inline Fe fe_reduce(unsigned __int128 t0, unsigned __int128 t1,
                    unsigned __int128 t2, unsigned __int128 t3,
                    unsigned __int128 t4) {
  Fe r;
  std::uint64_t c;
  r.v[0] = (std::uint64_t)t0 & kMask51; c = (std::uint64_t)(t0 >> 51);
  t1 += c;
  r.v[1] = (std::uint64_t)t1 & kMask51; c = (std::uint64_t)(t1 >> 51);
  t2 += c;
  r.v[2] = (std::uint64_t)t2 & kMask51; c = (std::uint64_t)(t2 >> 51);
  t3 += c;
  r.v[3] = (std::uint64_t)t3 & kMask51; c = (std::uint64_t)(t3 >> 51);
  t4 += c;
  r.v[4] = (std::uint64_t)t4 & kMask51; c = (std::uint64_t)(t4 >> 51);
  r.v[0] += c * 19;
  c = r.v[0] >> 51; r.v[0] &= kMask51; r.v[1] += c;
  return r;
}

// Inputs need no carry pass: limbs up to 2^54 (any fe_add/fe_sub of
// reduced elements) keep every column sum below 2^115 and the final
// carry*19 below 2^64.
inline Fe fe_mul(const Fe& a, const Fe& b) {
  using u128 = unsigned __int128;
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
                      b4 = b.v[4];
  const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19,
                      b4_19 = b4 * 19;
  return fe_reduce(
      (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 + (u128)a3 * b2_19 +
          (u128)a4 * b1_19,
      (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 + (u128)a3 * b3_19 +
          (u128)a4 * b2_19,
      (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 + (u128)a3 * b4_19 +
          (u128)a4 * b3_19,
      (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 +
          (u128)a4 * b4_19,
      (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 +
          (u128)a4 * b0);
}

// a^2 with the symmetric cross terms merged: 15 multiplies instead of 25.
// The column sums are the same integers fe_mul(a, a) forms, so the result
// is identical limb for limb.
inline Fe fe_sq(const Fe& a) {
  using u128 = unsigned __int128;
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t a0_2 = a0 * 2, a1_2 = a1 * 2;
  const std::uint64_t a3_19 = a3 * 19, a4_19 = a4 * 19;
  const std::uint64_t a3_38 = a3 * 38, a4_38 = a4 * 38;
  return fe_reduce((u128)a0 * a0 + (u128)a1 * a4_38 + (u128)a2 * a3_38,
                   (u128)a0_2 * a1 + (u128)a2 * a4_38 + (u128)a3 * a3_19,
                   (u128)a0_2 * a2 + (u128)a1 * a1 + (u128)a3 * a4_38,
                   (u128)a0_2 * a3 + (u128)a1_2 * a2 + (u128)a4 * a4_19,
                   (u128)a0_2 * a4 + (u128)a1_2 * a3 + (u128)a2 * a2);
}

Fe fe_mul_small(const Fe& a, std::uint64_t k) {
  using u128 = unsigned __int128;
  Fe r;
  u128 c = 0;
  for (int i = 0; i < 5; ++i) {
    u128 t = (u128)a.v[i] * k + c;
    r.v[i] = (std::uint64_t)t & kMask51;
    c = t >> 51;
  }
  r.v[0] += (std::uint64_t)c * 19;
  std::uint64_t carry = r.v[0] >> 51;
  r.v[0] &= kMask51;
  r.v[1] += carry;
  return r;
}

// Inversion via Fermat: a^(p-2), using the standard 25519 addition chain.
Fe fe_invert(const Fe& z) {
  Fe z2 = fe_sq(z);                       // 2
  Fe z8 = fe_sq(fe_sq(z2));               // 8
  Fe z9 = fe_mul(z8, z);                  // 9
  Fe z11 = fe_mul(z9, z2);                // 11
  Fe z22 = fe_sq(z11);                    // 22
  Fe z_5_0 = fe_mul(z22, z9);             // 2^5 - 2^0
  Fe t = z_5_0;
  for (int i = 0; i < 5; ++i) t = fe_sq(t);
  Fe z_10_0 = fe_mul(t, z_5_0);           // 2^10 - 2^0
  t = z_10_0;
  for (int i = 0; i < 10; ++i) t = fe_sq(t);
  Fe z_20_0 = fe_mul(t, z_10_0);          // 2^20 - 2^0
  t = z_20_0;
  for (int i = 0; i < 20; ++i) t = fe_sq(t);
  Fe z_40_0 = fe_mul(t, z_20_0);          // 2^40 - 2^0
  t = z_40_0;
  for (int i = 0; i < 10; ++i) t = fe_sq(t);
  Fe z_50_0 = fe_mul(t, z_10_0);          // 2^50 - 2^0
  t = z_50_0;
  for (int i = 0; i < 50; ++i) t = fe_sq(t);
  Fe z_100_0 = fe_mul(t, z_50_0);         // 2^100 - 2^0
  t = z_100_0;
  for (int i = 0; i < 100; ++i) t = fe_sq(t);
  Fe z_200_0 = fe_mul(t, z_100_0);        // 2^200 - 2^0
  t = z_200_0;
  for (int i = 0; i < 50; ++i) t = fe_sq(t);
  Fe z_250_0 = fe_mul(t, z_50_0);         // 2^250 - 2^0
  t = z_250_0;
  for (int i = 0; i < 5; ++i) t = fe_sq(t);
  return fe_mul(t, z11);                  // 2^255 - 21 = p - 2
}

Fe fe_from_bytes(const std::uint8_t in[32]) {
  auto load64 = [&](int off) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | in[off + i];
    return v;
  };
  auto load_partial = [&](int off, int n) {
    std::uint64_t v = 0;
    for (int i = n - 1; i >= 0; --i) v = (v << 8) | in[off + i];
    return v;
  };
  Fe r;
  r.v[0] = load64(0) & kMask51;
  r.v[1] = (load64(6) >> 3) & kMask51;
  r.v[2] = (load64(12) >> 6) & kMask51;
  r.v[3] = (load64(19) >> 1) & kMask51;
  r.v[4] = (load_partial(24, 8) >> 12) & kMask51;
  return r;
}

void fe_to_bytes(std::uint8_t out[32], const Fe& a) {
  // Fully reduce mod p, whatever the limb representation: after the carry
  // pass the value v is < 2^255 + 19, and v >= p exactly when v + 19
  // carries out of bit 255. Then v - p = v + 19 - 2^255.
  Fe r = fe_carry(a);
  std::uint64_t q = (r.v[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (r.v[i] + q) >> 51;
  r.v[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    r.v[i + 1] += r.v[i] >> 51;
    r.v[i] &= kMask51;
  }
  r.v[4] &= kMask51;
  std::uint64_t packed[4];
  packed[0] = r.v[0] | (r.v[1] << 51);
  packed[1] = (r.v[1] >> 13) | (r.v[2] << 38);
  packed[2] = (r.v[2] >> 26) | (r.v[3] << 25);
  packed[3] = (r.v[3] >> 39) | (r.v[4] << 12);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 8; ++j)
      out[8 * i + j] = static_cast<std::uint8_t>(packed[i] >> (8 * j));
}

void cswap(std::uint64_t swap, Fe& a, Fe& b) {
  const std::uint64_t mask = 0 - swap;  // 0 or all-ones
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t x = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= x;
    b.v[i] ^= x;
  }
}

}  // namespace

X25519Key x25519(const X25519Key& scalar, const X25519Key& point) {
  std::uint8_t e[32];
  std::memcpy(e, scalar.data(), 32);
  e[0] &= 248;
  e[31] &= 127;
  e[31] |= 64;

  std::uint8_t pt[32];
  std::memcpy(pt, point.data(), 32);
  pt[31] &= 127;  // mask the high bit per RFC 7748

  const Fe x1 = fe_from_bytes(pt);
  Fe x2 = fe_one(), z2 = fe_zero();
  Fe x3 = x1, z3 = fe_one();
  std::uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    const std::uint64_t k_t = (e[t >> 3] >> (t & 7)) & 1;
    swap ^= k_t;
    cswap(swap, x2, x3);
    cswap(swap, z2, z3);
    swap = k_t;

    // Every fe_add/fe_sub operand is a fe_mul/fe_sq/fe_mul_small output
    // (or a ladder start value), so sums stay below 2^54 and feed the
    // multiplies uncarried.
    const Fe a = fe_add(x2, z2);
    const Fe aa = fe_sq(a);
    const Fe b = fe_sub(x2, z2);
    const Fe bb = fe_sq(b);
    const Fe e_ = fe_sub(aa, bb);
    const Fe c = fe_add(x3, z3);
    const Fe d = fe_sub(x3, z3);
    const Fe da = fe_mul(d, a);
    const Fe cb = fe_mul(c, b);
    x3 = fe_sq(fe_add(da, cb));
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    const Fe a24e = fe_mul_small(e_, 121665);
    z2 = fe_mul(e_, fe_add(aa, a24e));
  }
  cswap(swap, x2, x3);
  cswap(swap, z2, z3);

  const Fe out = fe_mul(x2, fe_invert(z2));
  X25519Key result;
  fe_to_bytes(result.data(), out);
  return result;
}

X25519Key x25519_base(const X25519Key& scalar) {
  X25519Key base{};
  base[0] = 9;
  return x25519(scalar, base);
}

}  // namespace ting::crypto
