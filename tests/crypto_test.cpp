// Tests for the crypto substrate: cipher involution and determinism, sponge
// hash structure, HMAC/HKDF, X25519 algebraic properties, and the ntor-style
// handshake agreement — plus known-answer tests that pin the output bytes:
// RFC 8439 (ChaCha20) and RFC 7748 (X25519) vectors, and golden digests for
// the non-standard TingHash/HMAC/HKDF and the 32-bit counter wrap.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "crypto/chacha.h"
#include "crypto/handshake.h"
#include "crypto/hash.h"
#include "crypto/x25519.h"
#include "util/rng.h"

namespace ting::crypto {
namespace {

Key make_key(std::uint8_t fill) {
  Key k;
  k.fill(fill);
  return k;
}

Nonce make_nonce(std::uint8_t fill) {
  Nonce n;
  n.fill(fill);
  return n;
}

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ------------------------------------------------------------------ ChaCha

TEST(ChaChaTest, EncryptDecryptIsIdentity) {
  const Bytes msg = bytes_of("attack at dawn over the tor network");
  ChaChaCipher enc(make_key(1), make_nonce(2));
  ChaChaCipher dec(make_key(1), make_nonce(2));
  const Bytes ct = enc.transform(msg);
  EXPECT_NE(ct, msg);
  EXPECT_EQ(dec.transform(ct), msg);
}

TEST(ChaChaTest, StreamPositionMatters) {
  // Applying in two chunks equals applying all at once.
  Bytes msg(150, 0x5a);
  ChaChaCipher whole(make_key(3), make_nonce(4));
  Bytes expected = whole.transform(msg);

  ChaChaCipher chunked(make_key(3), make_nonce(4));
  Bytes part1(msg.begin(), msg.begin() + 70);
  Bytes part2(msg.begin() + 70, msg.end());
  Bytes got = chunked.transform(part1);
  const Bytes got2 = chunked.transform(part2);
  got.insert(got.end(), got2.begin(), got2.end());
  EXPECT_EQ(got, expected);
}

TEST(ChaChaTest, DifferentKeysProduceDifferentStreams) {
  Bytes zeros(64, 0);
  ChaChaCipher a(make_key(1), make_nonce(0));
  ChaChaCipher b(make_key(2), make_nonce(0));
  EXPECT_NE(a.transform(zeros), b.transform(zeros));
}

TEST(ChaChaTest, DifferentNoncesProduceDifferentStreams) {
  Bytes zeros(64, 0);
  ChaChaCipher a(make_key(1), make_nonce(0));
  ChaChaCipher b(make_key(1), make_nonce(1));
  EXPECT_NE(a.transform(zeros), b.transform(zeros));
}

TEST(ChaChaTest, CounterOffsetsKeystream) {
  Bytes zeros(128, 0);
  ChaChaCipher from0(make_key(7), make_nonce(8), 0);
  ChaChaCipher from1(make_key(7), make_nonce(8), 1);
  const Bytes s0 = from0.transform(zeros);
  const Bytes s1 = from1.transform(zeros);
  // Block 1 of s0 == block 0 of s1.
  EXPECT_TRUE(std::equal(s0.begin() + 64, s0.end(), s1.begin()));
}

TEST(ChaChaTest, KeystreamLooksBalanced) {
  Bytes zeros(1 << 14, 0);
  ChaChaCipher c(make_key(9), make_nonce(10));
  const Bytes ks = c.transform(zeros);
  std::size_t ones = 0;
  for (auto b : ks) ones += static_cast<std::size_t>(__builtin_popcount(b));
  const double frac = static_cast<double>(ones) / (ks.size() * 8.0);
  EXPECT_NEAR(frac, 0.5, 0.01);
}

TEST(ChaChaTest, OnionLayeringPeelsInOrder) {
  // Apply three layers like an onion proxy, peel like three relays.
  const Bytes msg = bytes_of("relay cell payload");
  std::vector<Key> keys{make_key(11), make_key(12), make_key(13)};
  Bytes wire = msg;
  for (int hop = 2; hop >= 0; --hop) {  // innermost layer applied first
    ChaChaCipher c(keys[static_cast<std::size_t>(hop)], make_nonce(0));
    wire = c.transform(wire);
  }
  for (int hop = 2; hop >= 0; --hop) {
    ChaChaCipher c(keys[static_cast<std::size_t>(hop)], make_nonce(0));
    wire = c.transform(wire);
  }
  EXPECT_EQ(wire, msg);
}

// -------------------------------------------------------------------- hash

TEST(HashTest, DeterministicAndInputSensitive) {
  EXPECT_EQ(hash("tor"), hash("tor"));
  EXPECT_NE(hash("tor"), hash("ting"));
  EXPECT_NE(hash(""), hash("x"));
}

TEST(HashTest, IncrementalEqualsOneShot) {
  const std::string msg(1000, 'q');
  Hasher h;
  h.update(msg.substr(0, 333));
  h.update(msg.substr(333));
  EXPECT_EQ(h.finalize(), hash(msg));
}

TEST(HashTest, LengthExtensionBlocked) {
  // "ab" then "c" differs from "a" then "bc" would be equal for a broken
  // concat; they should hash equal (same stream) — this asserts streaming
  // correctness, not a security property.
  Hasher h1;
  h1.update(std::string("ab"));
  h1.update(std::string("c"));
  Hasher h2;
  h2.update(std::string("a"));
  h2.update(std::string("bc"));
  EXPECT_EQ(h1.finalize(), h2.finalize());
  // But different total strings differ.
  EXPECT_NE(hash("abc"), hash("abd"));
}

TEST(HashTest, PaddingBoundaries) {
  // Exercise messages straddling the 32-byte rate and the length-block
  // overflow path (len 23..33 hit both padding branches).
  std::set<Digest> seen;
  for (int len = 0; len <= 80; ++len) {
    const Digest d = hash(std::string(static_cast<std::size_t>(len), 'z'));
    EXPECT_TRUE(seen.insert(d).second) << "collision at len " << len;
  }
}

TEST(HashTest, AvalancheOnSingleBitFlip) {
  Bytes a(64, 0);
  Bytes b = a;
  b[17] ^= 0x01;
  const Digest da = hash(a), db = hash(b);
  int diff_bits = 0;
  for (std::size_t i = 0; i < da.size(); ++i)
    diff_bits += __builtin_popcount(da[i] ^ db[i]);
  EXPECT_GT(diff_bits, 80);  // ~128 expected of 256
  EXPECT_LT(diff_bits, 176);
}

TEST(HmacTest, KeyAndMessageSensitivity) {
  const Bytes k1 = bytes_of("key-1"), k2 = bytes_of("key-2");
  const Bytes m1 = bytes_of("msg-1"), m2 = bytes_of("msg-2");
  EXPECT_EQ(hmac(k1, m1), hmac(k1, m1));
  EXPECT_NE(hmac(k1, m1), hmac(k2, m1));
  EXPECT_NE(hmac(k1, m1), hmac(k1, m2));
}

TEST(HmacTest, LongKeyIsHashedDown) {
  const Bytes long_key(100, 0x42);
  const Bytes msg = bytes_of("m");
  EXPECT_EQ(hmac(long_key, msg), hmac(long_key, msg));
}

TEST(HmacTest, EmptyKeyAndEmptyUpdatesAreWellDefined) {
  // An empty span may carry a null data(); neither path may hand it to
  // memcpy (UBSan flags that). An empty key is the all-zero block.
  const Bytes msg = bytes_of("m");
  EXPECT_EQ(hmac(std::span<const std::uint8_t>(), msg),
            hmac(Bytes(32, 0), msg));
  Hasher h;
  h.update(std::string("ab"));
  h.update(std::span<const std::uint8_t>());
  EXPECT_EQ(h.finalize(), hash("ab"));
}

TEST(HkdfTest, ProducesRequestedLengthDeterministically) {
  const Bytes ikm = bytes_of("input key material");
  const Bytes salt = bytes_of("salt");
  const Bytes a = hkdf(ikm, salt, "info", 100);
  const Bytes b = hkdf(ikm, salt, "info", 100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a, b);
}

TEST(HkdfTest, PrefixStability) {
  // Requesting fewer bytes yields a prefix of requesting more.
  const Bytes ikm = bytes_of("ikm");
  const Bytes salt = bytes_of("s");
  const Bytes short_out = hkdf(ikm, salt, "i", 40);
  const Bytes long_out = hkdf(ikm, salt, "i", 96);
  EXPECT_TRUE(std::equal(short_out.begin(), short_out.end(), long_out.begin()));
}

TEST(HkdfTest, InfoSeparatesOutputs) {
  const Bytes ikm = bytes_of("ikm");
  const Bytes salt = bytes_of("s");
  EXPECT_NE(hkdf(ikm, salt, "forward", 32), hkdf(ikm, salt, "backward", 32));
}

// ------------------------------------------------------------------ x25519

X25519Key random_key(Rng& rng) {
  X25519Key k;
  for (auto& b : k) b = static_cast<std::uint8_t>(rng.next_u64());
  return k;
}

TEST(X25519Test, BasepointDerivationDeterministic) {
  Rng rng(101);
  const X25519Key s = random_key(rng);
  EXPECT_EQ(x25519_base(s), x25519_base(s));
}

TEST(X25519Test, DifferentSecretsGiveDifferentPublics) {
  Rng rng(102);
  std::set<X25519Key> pubs;
  for (int i = 0; i < 20; ++i)
    EXPECT_TRUE(pubs.insert(x25519_base(random_key(rng))).second);
}

TEST(X25519Test, DiffieHellmanCommutes) {
  // The core algebraic property the handshake relies on:
  // a * (b * G) == b * (a * G), over many random keypairs.
  Rng rng(103);
  for (int i = 0; i < 40; ++i) {
    const X25519Key a = random_key(rng), b = random_key(rng);
    const X25519Key A = x25519_base(a), B = x25519_base(b);
    EXPECT_EQ(x25519(a, B), x25519(b, A)) << "iteration " << i;
  }
}

TEST(X25519Test, ScalarMultAssociatesOnArbitraryPoints) {
  // a * (b * P) == b * (a * P) for arbitrary P (not just the basepoint).
  Rng rng(104);
  for (int i = 0; i < 15; ++i) {
    const X25519Key a = random_key(rng), b = random_key(rng);
    X25519Key p = random_key(rng);
    p[31] &= 127;
    EXPECT_EQ(x25519(a, x25519(b, p)), x25519(b, x25519(a, p)));
  }
}

TEST(X25519Test, ClampingMakesLowBitsIrrelevant) {
  Rng rng(105);
  X25519Key s = random_key(rng);
  X25519Key s2 = s;
  s2[0] ^= 0x07;  // bits cleared by clamping
  EXPECT_EQ(x25519_base(s), x25519_base(s2));
}

// ------------------------------------------------------- known answers
//
// The RFC vectors were cross-checked against Python `cryptography` 48.0.0.
// The TingHash/HMAC/HKDF digests and the counter-wrap keystream have no
// external reference; they are golden outputs that pin today's bytes, so a
// kernel rewrite cannot silently change them (matrix RTTs do not depend on
// keystream bytes, so no end-to-end test would notice).

Key rfc_key() {
  Key k;
  for (std::size_t i = 0; i < k.size(); ++i)
    k[i] = static_cast<std::uint8_t>(i);
  return k;
}

// A fixed-size key, nonce or point from hex of exactly its length.
template <typename Array>
Array array_from_hex(const std::string& h) {
  const Bytes b = from_hex(h);
  Array a{};
  EXPECT_EQ(b.size(), a.size()) << h;
  std::copy_n(b.begin(), std::min(b.size(), a.size()), a.begin());
  return a;
}

// Deterministic test message: byte i = i * mul + add (mod 256).
Bytes pattern(std::size_t n, unsigned mul, unsigned add) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(i * mul + add);
  return b;
}

TEST(ChaChaKatTest, Rfc8439BlockFunction) {
  // RFC 8439 §2.3.2: the serialized block at counter 1 is the keystream.
  ChaChaCipher c(rfc_key(), array_from_hex<Nonce>("000000090000004a00000000"),
                 1);
  Bytes block(64, 0);
  c.apply(block);
  EXPECT_EQ(to_hex(block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaChaKatTest, Rfc8439Encryption) {
  // RFC 8439 §2.4.2: 114-byte "sunscreen" plaintext, counter 1.
  const Bytes plaintext = bytes_of(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  ASSERT_EQ(plaintext.size(), 114u);
  ChaChaCipher c(rfc_key(), array_from_hex<Nonce>("000000000000004a00000000"),
                 1);
  EXPECT_EQ(to_hex(c.transform(plaintext)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaChaKatTest, CounterWrapsAt32Bits) {
  // Golden: five blocks from counter 0xffffffff, i.e. blocks 0xffffffff,
  // 0, 1, 2, 3 — the counter wraps in 32 bits and never carries into the
  // nonce. A multi-block kernel must wrap per block, not per batch.
  const Nonce nonce = array_from_hex<Nonce>("000000000000004a00000000");
  ChaChaCipher c(rfc_key(), nonce, 0xffffffffu);
  Bytes ks(320, 0);
  c.apply(ks);
  EXPECT_EQ(to_hex(ks),
            "6d29da5bd16a472910e8c0bdb47edfc8499c3222cc168d3721747fc2b21266d9"
            "f15c8339f10f354d16cc9b8e118eb182bf858ce5718fa4e76389ea4eb50a9475"
            "af051e40bba0354981329a806a140eafd258a22a6dcb4bb9f6569cb3efe2deaf"
            "837bd87ca20b5ba12081a306af0eb35c41a239d20dfc74c81771560d9c9c1e4b"
            "224f51f3401bd9e12fde276fb8631ded8c131f823d2c06e27e4fcaec9ef3cf78"
            "8a3b0aa372600a92b57974cded2b9334794cba40c63e34cdea212c4cf07d41b7"
            "69a6749f3f630f4122cafe28ec4dc47e26d4346d70b98c73f3e9c53ac40c5945"
            "398b6eda1a832c89c167eacd901d7e2bf363740373201aa188fbbce83991c4ed"
            "c8ed064c6e939d403175eee14750f3e5a9ae8b46c14dad4a9628caaf064a21d0"
            "0a7253adf8cf8eb0986c3e6872c6de654d8076cb9aa19c17413d86bc0ed56b13");
  // Blocks after the wrap are the counter-0 stream.
  ChaChaCipher from0(rfc_key(), nonce, 0);
  Bytes ks0(256, 0);
  from0.apply(ks0);
  EXPECT_TRUE(std::equal(ks.begin() + 64, ks.end(), ks0.begin()));
}

TEST(ChaChaKatTest, AnySplitEqualsOneShot) {
  // Every split point of a 1,200-byte message, every prefix length, and
  // every fixed chunk size up to 300 must reproduce the one-shot keystream:
  // the partial-block carry between calls is invisible in the output.
  constexpr std::size_t kLen = 1200;
  const Bytes msg = pattern(kLen, 7, 1);
  const Key key = make_key(0x3c);
  const Nonce nonce = make_nonce(0x5d);
  ChaChaCipher ref_cipher(key, nonce, 7);
  const Bytes ref = ref_cipher.transform(msg);

  for (std::size_t split = 0; split <= kLen; ++split) {
    ChaChaCipher c(key, nonce, 7);
    Bytes buf = msg;
    c.apply(std::span<std::uint8_t>(buf.data(), split));
    c.apply(std::span<std::uint8_t>(buf.data() + split, kLen - split));
    ASSERT_EQ(buf, ref) << "split at " << split;
  }
  for (std::size_t len = 0; len <= kLen; ++len) {
    ChaChaCipher c(key, nonce, 7);
    Bytes buf(msg.begin(), msg.begin() + static_cast<std::ptrdiff_t>(len));
    c.apply(buf);
    ASSERT_TRUE(std::equal(buf.begin(), buf.end(), ref.begin()))
        << "prefix of " << len;
  }
  for (std::size_t chunk = 1; chunk <= 300; ++chunk) {
    ChaChaCipher c(key, nonce, 7);
    Bytes buf = msg;
    for (std::size_t off = 0; off < kLen; off += chunk)
      c.apply(std::span<std::uint8_t>(buf.data() + off,
                                      std::min(chunk, kLen - off)));
    ASSERT_EQ(buf, ref) << "chunk size " << chunk;
  }
}

TEST(HashKatTest, GoldenDigestsAcrossPaddingBoundaries) {
  // Lengths straddle both padding branches (23/24), the 32-byte rate
  // (31/32/33) and a relay-cell payload (509) plus one rate block (541).
  // HMAC uses a 20-byte key.
  struct Golden {
    std::size_t len;
    const char* hash;
    const char* hmac;
  };
  const Golden golden[] = {
      {0, "0ace076e8c8464b998f1b8577a3c960230c5289fa8c4575a56bd70437dd79891",
       "788e929e159d842a33efe39dfab28acfb77a5b7eb8c6cb8008acb223f685bae8"},
      {1, "6ababcf8f088c9c6f2137273f03b7b4520c0ab32f20baca19f2a871c885ab9e7",
       "3c7557db78259043ad404e4865b99d155e11845cdc4726a6a12a9b70f4705186"},
      {23, "d12a75e9b6dfe560a5b07106f492369d49f94cde67cd19dd0c6bc6964cddfb92",
       "7174806a59e84942e370fdcbf8382a4479aec0c1135bacc113cd9d59453fd70f"},
      {24, "7fb5a48060848908520d48a99df761add0cd7fe26560eacd26684658118d7c22",
       "309a3bb5b2725a9b45f929cf014249e0ba770b5bcb4649a3c4478422bb80997e"},
      {31, "138638353620418c5c4f365ae26d958d447a281dde1762f951d361daae80c2a9",
       "57bab002d3ac535cc2a2a813de275c1bdb076b14ce756b6e6995932e035db54d"},
      {32, "9f19e8afa5ef1645bb274db5a8e282f3d8f44356e38424253430b0584a605fbc",
       "f6e18f0ad2813f15533666d25043ba125693585a3f661315ec03215fec547a80"},
      {33, "245a94f70685e78ca17e9c9d9b1299efb47101a6203ae691510df484582a9f8d",
       "4054604f2ee290724cd2a03882ef5e79af449fbaff780208389b2142507e0175"},
      {509, "c46efef698eef9d01eb23b9f8574b043bd008ccce18d9eef604a63d1b0633c52",
       "884c85d86f9cacffdd182074dcdd8c5bf7a39e4d1a28a4f4cf47ab84bf0012d5"},
      {541, "9165edfb070ce8967a3f00a68e18281902714ff4bf47a73e3fb121bccdcc165f",
       "7cd0ae8e15a2f494d0cb7b45c4c5b1abdfafbd868f97212ddcdcc46230a43f7a"},
  };
  const Bytes key = pattern(20, 13, 5);
  for (const Golden& g : golden) {
    const Bytes msg = pattern(g.len, 37, 11);
    EXPECT_EQ(to_hex(hash(msg)), g.hash) << "hash, len " << g.len;
    EXPECT_EQ(to_hex(hmac(key, msg)), g.hmac) << "hmac, len " << g.len;
  }
}

TEST(HashKatTest, GoldenHmacLongKeyAndHkdf) {
  // A 45-byte key exceeds the 32-byte block and is hashed down first.
  EXPECT_EQ(to_hex(hmac(pattern(45, 13, 5), pattern(33, 37, 11))),
            "ad720669cf803921710a757732dc84966e12d68e3c07dc2a4d46715795a78798");
  // 72 bytes = three HKDF expand blocks, the last one truncated.
  EXPECT_EQ(to_hex(hkdf(pattern(22, 37, 11), pattern(13, 13, 5), "ting kat",
                       72)),
            "2e884230adbb79ac2f47912554c0085da810fc98fdebd29b3e1a1c737c292e00"
            "7a951dd65015efb8cd567590402a504e6ec1add4b1f2766961d6d882c435d1eb"
            "eb28dd2a97252645");
}

TEST(X25519KatTest, Rfc7748ScalarMultVectors) {
  // RFC 7748 §5.2. The second input u-coordinate has its top bit set,
  // which must be masked.
  struct Vector {
    const char* scalar;
    const char* u;
    const char* out;
  };
  const Vector vectors[] = {
      {"a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
       "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
       "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"},
      {"4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
       "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
       "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"},
  };
  for (const Vector& v : vectors)
    EXPECT_EQ(to_hex(x25519(array_from_hex<X25519Key>(v.scalar),
                            array_from_hex<X25519Key>(v.u))),
              v.out);
}

TEST(X25519KatTest, Rfc7748IteratedLadder) {
  // RFC 7748 §5.2: k = u = 9; repeatedly k, u = x25519(k, u), k.
  X25519Key k = array_from_hex<X25519Key>(
      "0900000000000000000000000000000000000000000000000000000000000000");
  X25519Key u = k;
  for (int i = 1; i <= 1000; ++i) {
    const X25519Key next = x25519(k, u);
    u = k;
    k = next;
    if (i == 1) {
      EXPECT_EQ(to_hex(k), "422c8e7a6227d7bca1350b3e2bb7279f"
                           "7897b87bb6854b783c60e80311ae3079");
    }
  }
  EXPECT_EQ(to_hex(k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519KatTest, Rfc7748DiffieHellman) {
  // RFC 7748 §6.1: Alice and Bob derive each other's public keys and the
  // shared secret.
  const X25519Key a = array_from_hex<X25519Key>(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const X25519Key b = array_from_hex<X25519Key>(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  const X25519Key A = x25519_base(a), B = x25519_base(b);
  EXPECT_EQ(to_hex(A),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(to_hex(B),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  const std::string shared =
      "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742";
  EXPECT_EQ(to_hex(x25519(a, B)), shared);
  EXPECT_EQ(to_hex(x25519(b, A)), shared);
}

// --------------------------------------------------------------- handshake

TEST(HandshakeTest, ClientAndRelayDeriveSameKeys) {
  Rng rng(201);
  const IdentityKeys id = IdentityKeys::generate(rng);
  const ClientHandshake ch = ClientHandshake::start(rng);
  const RelayHandshakeResult rr = relay_handshake(id, ch.ephemeral_public, rng);
  const auto client_keys =
      ch.finish(id.public_key, rr.ephemeral_public, rr.keys.auth);
  ASSERT_TRUE(client_keys.has_value());
  EXPECT_EQ(client_keys->forward_key, rr.keys.forward_key);
  EXPECT_EQ(client_keys->backward_key, rr.keys.backward_key);
  EXPECT_EQ(client_keys->forward_digest_seed, rr.keys.forward_digest_seed);
  EXPECT_EQ(client_keys->backward_digest_seed, rr.keys.backward_digest_seed);
}

TEST(HandshakeTest, ForwardAndBackwardKeysDiffer) {
  Rng rng(202);
  const IdentityKeys id = IdentityKeys::generate(rng);
  const ClientHandshake ch = ClientHandshake::start(rng);
  const RelayHandshakeResult rr = relay_handshake(id, ch.ephemeral_public, rng);
  EXPECT_NE(rr.keys.forward_key, rr.keys.backward_key);
}

TEST(HandshakeTest, WrongIdentityKeyFailsAuth) {
  Rng rng(203);
  const IdentityKeys real_id = IdentityKeys::generate(rng);
  const IdentityKeys fake_id = IdentityKeys::generate(rng);
  const ClientHandshake ch = ClientHandshake::start(rng);
  const RelayHandshakeResult rr =
      relay_handshake(real_id, ch.ephemeral_public, rng);
  // Client expected fake_id: the MITM check must fail.
  EXPECT_FALSE(
      ch.finish(fake_id.public_key, rr.ephemeral_public, rr.keys.auth)
          .has_value());
}

TEST(HandshakeTest, TamperedAuthTagFailsVerification) {
  Rng rng(204);
  const IdentityKeys id = IdentityKeys::generate(rng);
  const ClientHandshake ch = ClientHandshake::start(rng);
  const RelayHandshakeResult rr = relay_handshake(id, ch.ephemeral_public, rng);
  Digest bad = rr.keys.auth;
  bad[0] ^= 1;
  EXPECT_FALSE(ch.finish(id.public_key, rr.ephemeral_public, bad).has_value());
}

TEST(HandshakeTest, SessionsAreUnique) {
  Rng rng(205);
  const IdentityKeys id = IdentityKeys::generate(rng);
  std::set<Key> forward_keys;
  for (int i = 0; i < 10; ++i) {
    const ClientHandshake ch = ClientHandshake::start(rng);
    const RelayHandshakeResult rr =
        relay_handshake(id, ch.ephemeral_public, rng);
    EXPECT_TRUE(forward_keys.insert(rr.keys.forward_key).second);
  }
}

}  // namespace
}  // namespace ting::crypto
