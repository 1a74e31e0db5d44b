// Unit tests for common/: Rng, Status/Result, Huffman, serialization,
// TablePrinter.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "common/huffman.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace qcore {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedUintStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    int v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsApproximate) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementUniqueAndComplete) {
  Rng rng(17);
  std::vector<int> s = rng.SampleWithoutReplacement(10, 10);
  std::set<int> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  EXPECT_EQ(*uniq.begin(), 0);
  EXPECT_EQ(*uniq.rbegin(), 9);
}

TEST(RngTest, SampleWithoutReplacementPartial) {
  Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> s = rng.SampleWithoutReplacement(100, 7);
    std::set<int> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 7u);
    for (int v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 100);
    }
  }
}

TEST(RngTest, SampleWeightedRespectsZeros) {
  Rng rng(23);
  std::vector<double> w = {0.0, 1.0, 0.0, 3.0};
  std::map<int, int> counts;
  for (int i = 0; i < 4000; ++i) ++counts[rng.SampleWeighted(w)];
  EXPECT_EQ(counts.count(0), 0u);
  EXPECT_EQ(counts.count(2), 0u);
  // Index 3 should dominate index 1 roughly 3:1.
  EXPECT_GT(counts[3], 2 * counts[1]);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(31);
  Rng b = a.Split();
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(HuffmanTest, RoundTripSimple) {
  std::vector<int32_t> symbols = {1, 1, 1, 2, 2, 3, -1, -1, -1, -1};
  auto enc = HuffmanCoder::Encode(symbols);
  ASSERT_TRUE(enc.ok());
  auto dec = HuffmanCoder::Decode(enc.value());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), symbols);
}

TEST(HuffmanTest, SingleSymbolAlphabet) {
  std::vector<int32_t> symbols(57, 5);
  auto enc = HuffmanCoder::Encode(symbols);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc.value().PayloadBits(), 57u);
  auto dec = HuffmanCoder::Decode(enc.value());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), symbols);
}

TEST(HuffmanTest, EmptyInputRejected) {
  auto enc = HuffmanCoder::Encode({});
  EXPECT_FALSE(enc.ok());
}

// Decode promises a Status on a corrupt stream. The first three damaged
// headers once crashed it instead: a bit count past the payload read past
// `bits`, a length without a code threw from the table lookup, and a
// symbol count of 2^62 threw from the output reservation. The fourth has a
// code length no 64-bit code can carry.
TEST(HuffmanTest, DamagedHeadersFailAsCorruption) {
  auto enc = HuffmanCoder::Encode({1, 1, 1, 2, 2, 3, -1, -1, -1, -1});
  ASSERT_TRUE(enc.ok());
  std::vector<HuffmanEncoded> damaged(4, enc.value());
  damaged[0].bit_count = 8 * damaged[0].bits.size() + 64;
  damaged[0].symbol_count = damaged[0].bit_count;
  damaged[1].codes.erase(3);
  damaged[2].symbol_count = uint64_t{1} << 62;
  damaged[3].code_lengths[3] = 64;
  for (size_t i = 0; i < damaged.size(); ++i) {
    auto dec = HuffmanCoder::Decode(damaged[i]);
    ASSERT_FALSE(dec.ok()) << "case " << i;
    EXPECT_EQ(dec.status().code(), StatusCode::kCorruption) << "case " << i;
  }
}

TEST(HuffmanTest, SkewedDistributionCompresses) {
  // 900 zeros + a few other symbols: payload must beat fixed-width coding.
  std::vector<int32_t> symbols(900, 0);
  for (int i = 0; i < 30; ++i) symbols.push_back(i % 7 + 1);
  auto enc = HuffmanCoder::Encode(symbols);
  ASSERT_TRUE(enc.ok());
  // Fixed-width needs 3 bits for 8 symbols.
  EXPECT_LT(enc.value().PayloadBits(), symbols.size() * 3);
}

// Property sweep: round trip across random alphabets and stream lengths,
// and payload within [entropy, entropy + 1 bit/symbol].
class HuffmanPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HuffmanPropertyTest, RoundTripAndNearEntropy) {
  Rng rng(1000 + GetParam());
  const int n = 200 + GetParam() * 97;
  const int alphabet = 2 + GetParam() % 15;
  std::vector<int32_t> symbols(n);
  for (auto& s : symbols) {
    // Zipf-ish skew so distributions vary.
    s = static_cast<int32_t>(rng.NextUint64(rng.NextUint64(alphabet) + 1));
  }
  auto enc = HuffmanCoder::Encode(symbols);
  ASSERT_TRUE(enc.ok());
  auto dec = HuffmanCoder::Decode(enc.value());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), symbols);
  const double entropy = HuffmanCoder::EntropyBits(symbols);
  EXPECT_GE(enc.value().PayloadBits() + 1e-9, entropy);
  EXPECT_LE(static_cast<double>(enc.value().PayloadBits()),
            entropy + symbols.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, HuffmanPropertyTest,
                         ::testing::Range(0, 12));

TEST(SerializeTest, RoundTripAllTypes) {
  BinaryWriter w;
  w.WriteU32(7);
  w.WriteI32(-9);
  w.WriteU64(1ull << 40);
  w.WriteI64(-(1ll << 40));
  w.WriteF32(1.5f);
  w.WriteF64(2.25);
  w.WriteString("hello");
  w.WriteFloats({1.0f, 2.0f, 3.0f});
  w.WriteInts({-1, 0, 1});
  w.WriteInt64s({10, 20});

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadU32().value(), 7u);
  EXPECT_EQ(r.ReadI32().value(), -9);
  EXPECT_EQ(r.ReadU64().value(), 1ull << 40);
  EXPECT_EQ(r.ReadI64().value(), -(1ll << 40));
  EXPECT_EQ(r.ReadF32().value(), 1.5f);
  EXPECT_EQ(r.ReadF64().value(), 2.25);
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_EQ(r.ReadFloats().value(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(r.ReadInts().value(), (std::vector<int32_t>{-1, 0, 1}));
  EXPECT_EQ(r.ReadInt64s().value(), (std::vector<int64_t>{10, 20}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, BytesRoundTripAndTruncation) {
  BinaryWriter w;
  w.WriteBytes({0x00, 0xFF, 0x42});
  w.WriteBytes({});
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadBytes().value(), (std::vector<uint8_t>{0x00, 0xFF, 0x42}));
  EXPECT_TRUE(r.ReadBytes().value().empty());
  EXPECT_TRUE(r.AtEnd());

  BinaryWriter bad;
  bad.WriteU64(1000);  // length prefix promising bytes that are not there
  BinaryReader rb(bad.buffer());
  auto bytes = rb.ReadBytes();
  EXPECT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kCorruption);
}

TEST(Crc32Test, KnownVectorAndChaining) {
  // The canonical IEEE CRC32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Chained partial checksums equal the checksum of the concatenation.
  const uint32_t partial = Crc32("12345", 5);
  EXPECT_EQ(Crc32("6789", 4, partial), 0xCBF43926u);
  // Any single-byte change moves the checksum.
  EXPECT_NE(Crc32("123456780", 9), 0xCBF43926u);
}

TEST(FramedRecordTest, RoundTripMultipleRecords) {
  std::vector<uint8_t> buf;
  const std::vector<uint8_t> a = {1, 2, 3};
  const std::vector<uint8_t> b = {};  // empty payloads frame fine
  const std::vector<uint8_t> c(300, 0xAB);
  AppendFramedRecord(a, &buf);
  AppendFramedRecord(b, &buf);
  AppendFramedRecord(c, &buf);

  size_t pos = 0;
  EXPECT_EQ(ReadFramedRecord(buf, &pos).value(), a);
  EXPECT_EQ(ReadFramedRecord(buf, &pos).value(), b);
  EXPECT_EQ(ReadFramedRecord(buf, &pos).value(), c);
  EXPECT_EQ(pos, buf.size());
}

TEST(FramedRecordTest, CorruptByteIsDetected) {
  std::vector<uint8_t> buf;
  AppendFramedRecord({10, 20, 30, 40, 50}, &buf);
  // Flip one payload byte: the CRC must catch it and leave pos untouched.
  std::vector<uint8_t> corrupt = buf;
  corrupt[corrupt.size() - 2] ^= 0x01;
  size_t pos = 0;
  auto r = ReadFramedRecord(corrupt, &pos);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(pos, 0u);
}

TEST(FramedRecordTest, TornTailIsDetected) {
  std::vector<uint8_t> buf;
  AppendFramedRecord({10, 20, 30, 40, 50}, &buf);
  // A record cut mid-payload (and one cut mid-header) must both read as
  // Corruption without advancing — the WAL truncation signal.
  for (size_t cut : {buf.size() - 1, size_t{3}}) {
    std::vector<uint8_t> torn(buf.begin(),
                              buf.begin() + static_cast<long>(cut));
    size_t pos = 0;
    auto r = ReadFramedRecord(torn, &pos);
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_EQ(pos, 0u);
  }
}

TEST(SerializeTest, TruncationIsError) {
  BinaryWriter w;
  w.WriteU64(1000);  // length prefix promising data that is not there
  BinaryReader r(w.buffer());
  auto floats = r.ReadFloats();
  EXPECT_FALSE(floats.ok());
  EXPECT_EQ(floats.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, FileRoundTripAndBadMagic) {
  const std::string path = "/tmp/qcore_serialize_test.bin";
  BinaryWriter w;
  w.WriteString("persisted");
  ASSERT_TRUE(w.ToFile(path).ok());
  auto r = BinaryReader::FromFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ReadString().value(), "persisted");

  // Corrupt the magic.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const uint32_t junk = 0xDEADBEEF;
  std::fwrite(&junk, sizeof(junk), 1, f);
  std::fclose(f);
  auto bad = BinaryReader::FromFile(path);
  EXPECT_FALSE(bad.ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsIoError) {
  auto r = BinaryReader::FromFile("/tmp/definitely_missing_qcore_file.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "2.5"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(0.123456, 3), "0.123");
  EXPECT_EQ(TablePrinter::Num(2.0, 1), "2.0");
}

}  // namespace
}  // namespace qcore
