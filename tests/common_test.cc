#include <gtest/gtest.h>

#include <cmath>

#include "tc/common/bytes.h"
#include "tc/common/clock.h"
#include "tc/common/codec.h"
#include "tc/common/result.h"
#include "tc/common/rng.h"
#include "tc/common/status.h"

namespace tc {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such record");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "no such record");
  EXPECT_EQ(s.ToString(), "NotFound: no such record");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::PermissionDenied("nope");
  Status t = s;
  EXPECT_TRUE(t.IsPermissionDenied());
  EXPECT_EQ(s, t);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Doubler(Result<int> in) {
  TC_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Status::NotFound("x")).status().code(),
            StatusCode::kNotFound);
}

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0x00, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(HexEncode(b), "00deadbeefff");
  auto decoded = HexDecode("00deadbeefff");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, b);
}

TEST(BytesTest, HexDecodeRejectsBadInput) {
  EXPECT_FALSE(HexDecode("abc").ok());   // Odd length.
  EXPECT_FALSE(HexDecode("zz").ok());    // Non-hex.
}

TEST(BytesTest, ConstantTimeEqual) {
  EXPECT_TRUE(ConstantTimeEqual(ToBytes("abc"), ToBytes("abc")));
  EXPECT_FALSE(ConstantTimeEqual(ToBytes("abc"), ToBytes("abd")));
  EXPECT_FALSE(ConstantTimeEqual(ToBytes("abc"), ToBytes("abcd")));
}

TEST(CodecTest, RoundTripAllTypes) {
  BinaryWriter w;
  w.PutU8(7);
  w.PutU16(65535);
  w.PutU32(123456789);
  w.PutU64(0xdeadbeefcafebabeULL);
  w.PutI64(-42);
  w.PutDouble(3.14159);
  w.PutVarint(300);
  w.PutBytes({1, 2, 3});
  w.PutString("hello");
  w.PutBool(true);
  Bytes buf = w.Take();

  BinaryReader r(buf);
  EXPECT_EQ(*r.GetU8(), 7);
  EXPECT_EQ(*r.GetU16(), 65535);
  EXPECT_EQ(*r.GetU32(), 123456789u);
  EXPECT_EQ(*r.GetU64(), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(*r.GetI64(), -42);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 3.14159);
  EXPECT_EQ(*r.GetVarint(), 300u);
  EXPECT_EQ(*r.GetBytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_TRUE(*r.GetBool());
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, TruncationIsCorruption) {
  BinaryWriter w;
  w.PutU64(1);
  Bytes buf = w.Take();
  buf.resize(4);
  BinaryReader r(buf);
  EXPECT_EQ(r.GetU64().status().code(), StatusCode::kCorruption);
}

TEST(CodecTest, VarintBoundaries) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                     0xffffffffULL, 0xffffffffffffffffULL}) {
    BinaryWriter w;
    w.PutVarint(v);
    BinaryReader r(w.buffer());
    EXPECT_EQ(*r.GetVarint(), v);
  }
}

TEST(CodecTest, BytesLengthLieDetected) {
  BinaryWriter w;
  w.PutVarint(100);  // Claims 100 bytes follow...
  w.PutU8(1);        // ...but only one does.
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.GetBytes().status().code(), StatusCode::kCorruption);
}

TEST(CodecTest, CheckCountBoundsACountByTheBytesLeft) {
  const Bytes buf(16, 0);
  BinaryReader r(buf);
  EXPECT_TRUE(r.CheckCount(2, 8).ok());   // Exactly fits.
  EXPECT_EQ(r.CheckCount(3, 8).code(), StatusCode::kCorruption);
  EXPECT_TRUE(r.CheckCount(16, 0).ok());  // 0 counts as 1 byte each.
  EXPECT_EQ(r.CheckCount(17, 0).code(), StatusCode::kCorruption);
  EXPECT_EQ(r.CheckCount(UINT64_MAX, 1).code(), StatusCode::kCorruption);
  ASSERT_TRUE(r.GetU64().ok());
  EXPECT_EQ(r.CheckCount(2, 8).code(), StatusCode::kCorruption);
}

TEST(ClockTest, SimulatedClockAdvances) {
  SimulatedClock clock(1000);
  EXPECT_EQ(clock.Now(), 1000);
  clock.Advance(360);
  EXPECT_EQ(clock.Now(), 1360);
}

TEST(ClockTest, WindowStartAligns) {
  EXPECT_EQ(WindowStart(0, 900), 0);
  EXPECT_EQ(WindowStart(899, 900), 0);
  EXPECT_EQ(WindowStart(900, 900), 900);
  EXPECT_EQ(WindowStart(1000, 900), 900);
}

TEST(ClockTest, CalendarHelpers) {
  // 2012-07-15 12:00:00 UTC.
  Timestamp t = MakeTimestamp(2012, 7, 15, 12, 0, 0);
  EXPECT_EQ(YearOf(t), 2012);
  EXPECT_EQ(MonthIndex(t), (2012 - 1970) * 12 + 6);
  EXPECT_EQ(FormatTimestamp(t), "2012-07-15 12:00:00");
  // Known anchor: 2000-01-01 is 10957 days after the epoch.
  EXPECT_EQ(DayIndex(MakeTimestamp(2000, 1, 1)), 10957);
  EXPECT_EQ(MakeTimestamp(1970, 1, 1), 0);
}

TEST(ClockTest, MonthBoundary) {
  Timestamp end_of_jan = MakeTimestamp(2013, 1, 31, 23, 59, 59);
  Timestamp start_of_feb = MakeTimestamp(2013, 2, 1, 0, 0, 0);
  EXPECT_EQ(start_of_feb - end_of_jan, 1);
  EXPECT_EQ(MonthIndex(start_of_feb) - MonthIndex(end_of_jan), 1);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, LaplaceIsSymmetricWithExpectedScale) {
  Rng rng(13);
  const int n = 50000;
  const double scale = 2.5;
  double sum = 0, abs_sum = 0;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextLaplace(scale);
    sum += v;
    abs_sum += std::fabs(v);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.1);
  // E|X| = scale for Laplace(0, scale).
  EXPECT_NEAR(abs_sum / n, scale, 0.1);
}

TEST(RngTest, BytesLengthAndDeterminism) {
  Rng a(5), b(5);
  for (size_t len : {0u, 1u, 7u, 8u, 9u, 100u}) {
    Bytes x = a.NextBytes(len);
    EXPECT_EQ(x.size(), len);
    EXPECT_EQ(x, b.NextBytes(len));
  }
}

}  // namespace
}  // namespace tc
