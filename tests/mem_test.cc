// Unit tests for buffers, the payload checksum and the page cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/block_cache.h"
#include "mem/buffer.h"
#include "mem/checksum.h"
#include "mem/page_cache.h"
#include "sim/random.h"

namespace vread::mem {
namespace {

TEST(Buffer, DeterministicContentIsOffsetAddressable) {
  Buffer whole = Buffer::deterministic(42, 0, 1000);
  Buffer tail = Buffer::deterministic(42, 500, 500);
  EXPECT_EQ(whole.slice(500, 500), tail);
}

TEST(Buffer, DeterministicMatchesByteAtAtOddOffsetsAndLengths) {
  for (const std::uint64_t offset : {0ULL, 1ULL, 7ULL, 4093ULL, (1ULL << 40) + 3}) {
    for (const std::size_t len : {0, 1, 7, 8, 9, 4097}) {
      const Buffer b = Buffer::deterministic(11, offset, len);
      ASSERT_EQ(b.size(), len);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(b[i], Buffer::byte_at(11, offset + i)) << offset << "+" << i;
      }
    }
  }
}

TEST(Buffer, DifferentSeedsDiffer) {
  Buffer a = Buffer::deterministic(1, 0, 256);
  Buffer b = Buffer::deterministic(2, 0, 256);
  EXPECT_NE(a, b);
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(Buffer, ChecksumDetectsCorruption) {
  Buffer a = Buffer::deterministic(7, 0, 4096);
  std::uint64_t sum = a.checksum();
  a[100] ^= 0xff;
  EXPECT_NE(a.checksum(), sum);
}

TEST(Buffer, AppendAndSlice) {
  Buffer a = Buffer::deterministic(3, 0, 100);
  Buffer b = Buffer::deterministic(3, 100, 50);
  Buffer joined = a;
  joined.append(b);
  EXPECT_EQ(joined.size(), 150u);
  EXPECT_EQ(joined, Buffer::deterministic(3, 0, 150));
  EXPECT_EQ(joined.slice(100, 50), b);
}

TEST(Buffer, EmptyChecksumIsFnvBasis) {
  Buffer e;
  EXPECT_EQ(e.checksum(), 0xcbf29ce484222325ULL);
  EXPECT_TRUE(e.empty());
}

TEST(Checksum, AnySplitMatchesOneUpdate) {
  const Buffer data = Buffer::deterministic(11, 0, 4099);
  const std::uint64_t whole = Checksum().update(data.data(), data.size()).digest();
  EXPECT_EQ(whole, data.checksum());
  sim::Rng rng(5);
  // Fixed piece sizes around the 32-byte stripe, then random splits.
  std::vector<std::vector<std::size_t>> plans = {{1}, {31}, {32}, {33}, {7, 0, 1, 31, 64}};
  for (int r = 0; r < 20; ++r) {
    std::vector<std::size_t> plan;
    for (int i = 0; i < 12; ++i) plan.push_back(rng.uniform(1, 100));
    plans.push_back(plan);
  }
  for (const std::vector<std::size_t>& plan : plans) {
    Checksum sum;
    std::size_t pos = 0;
    for (std::size_t i = 0; pos < data.size(); ++i) {
      const std::size_t n = std::min(plan[i % plan.size()], data.size() - pos);
      sum.update(data.data() + pos, n);
      pos += n;
    }
    EXPECT_EQ(sum.digest(), whole);
  }
}

TEST(Checksum, DetectsASingleByteFlipAtEveryOffset) {
  // 100 bytes: three whole stripes (every lane) plus a 4-byte carried tail.
  const Buffer clean = Buffer::deterministic(13, 0, 100);
  const std::uint64_t sum = clean.checksum();
  for (std::size_t i = 0; i < clean.size(); ++i) {
    Buffer flipped = clean;
    flipped[i] ^= 0x01;
    EXPECT_NE(flipped.checksum(), sum) << "offset " << i;
  }
  EXPECT_EQ(clean.checksum(), sum);  // the copies never touched `clean`
}

TEST(Checksum, ZeroPaddingChangesTheDigest) {
  Buffer data = Buffer::deterministic(17, 0, 40);
  const std::uint64_t sum = data.checksum();
  data.resize(64);  // zero bytes appended
  EXPECT_NE(data.checksum(), sum);
  EXPECT_NE(Buffer(32).checksum(), Buffer(31).checksum());
}

TEST(Buffer, SliceSharesStorageAndMutationCopies) {
  Buffer parent = Buffer::deterministic(19, 0, 256);
  const Buffer view = parent.slice(64, 64);
  EXPECT_EQ(view.data(), std::as_const(parent).data() + 64);  // no copy
  parent[64] ^= 0xff;  // copy-on-write: the slice keeps its bytes
  parent.append(Buffer::deterministic(19, 256, 16));
  EXPECT_EQ(view, Buffer::deterministic(19, 64, 64));
  EXPECT_NE(parent.slice(64, 64), view);
  Buffer child = view;
  child.resize(128);  // growing a shared view copies too
  EXPECT_EQ(view.size(), 64u);
  EXPECT_EQ(view, Buffer::deterministic(19, 64, 64));
}

TEST(Buffer, AppendSharesIntoEmptyAndCopiesIntoReserved) {
  const Buffer part = Buffer::deterministic(37, 0, 128);
  Buffer joined;
  joined.append(part);
  EXPECT_EQ(std::as_const(joined).data(), part.data());
  Buffer reserved;
  reserved.reserve(256);
  reserved.append(part);
  reserved.append(Buffer::deterministic(37, 128, 128));
  EXPECT_NE(std::as_const(reserved).data(), part.data());
  EXPECT_EQ(reserved, Buffer::deterministic(37, 0, 256));
  EXPECT_EQ(part, Buffer::deterministic(37, 0, 128));
}

TEST(Buffer, SliceOutOfRangeThrows) {
  const Buffer b = Buffer::deterministic(23, 0, 100);
  EXPECT_THROW(b.slice(101, 0), std::out_of_range);
  EXPECT_THROW(b.slice(50, 51), std::out_of_range);
  EXPECT_THROW(b.slice(1, SIZE_MAX), std::out_of_range);
  EXPECT_EQ(b.slice(100, 0).size(), 0u);
  EXPECT_EQ(b.slice(0, 100), b);
  // Bounds are the view's, not the shared storage's.
  const Buffer mid = b.slice(10, 20);
  EXPECT_THROW(mid.slice(0, 21), std::out_of_range);
  EXPECT_EQ(mid.slice(0, 20), Buffer::deterministic(23, 10, 20));
}

TEST(Buffer, CacheHitSurvivesMutationOfTheInsertedBuffer) {
  core::BlockCache cache(1 << 20, "cow-host");
  Buffer payload = Buffer::deterministic(29, 0, 4096);
  ASSERT_TRUE(cache.insert("dn", "blk", 0, payload));
  const Buffer before = cache.lookup("dn", "blk", 0, 4096);
  EXPECT_EQ(before.data(), std::as_const(payload).data());  // shared, not copied
  payload[0] ^= 0xff;
  payload.resize(8192);
  const Buffer hit = cache.lookup("dn", "blk", 0, 4096);
  EXPECT_EQ(hit, Buffer::deterministic(29, 0, 4096));
  EXPECT_EQ(before, hit);
  EXPECT_EQ(cache.integrity_failures(), 0u);
}

TEST(Buffer, CacheCopiesASliceRatherThanPinItsParent) {
  core::BlockCache cache(1 << 20, "pin-host");
  const Buffer parent = Buffer::deterministic(31, 0, 64 * 1024);
  const Buffer piece = parent.slice(4096, 4096);
  ASSERT_TRUE(cache.insert("dn", "blk", 4096, piece));
  const Buffer hit = cache.lookup("dn", "blk", 4096, 4096);
  EXPECT_EQ(hit, piece);
  EXPECT_NE(hit.data(), piece.data());  // its own 4 KB, not a view of 64 KB
}

TEST(PageCache, MissThenHit) {
  PageCache cache(1 << 20);  // 256 pages
  EXPECT_EQ(cache.miss_bytes(1, 0, 8192), 8192u);
  cache.fill(1, 0, 8192);
  EXPECT_EQ(cache.miss_bytes(1, 0, 8192), 0u);
  EXPECT_EQ(cache.resident_pages(), 2u);
}

TEST(PageCache, PartialRangeMiss) {
  PageCache cache(1 << 20);
  cache.fill(1, 0, 4096);  // page 0 only
  // Range spans pages 0 and 1; only page 1's span misses.
  EXPECT_EQ(cache.miss_bytes(1, 2048, 4096), 2048u);
}

TEST(PageCache, ObjectsAreIndependent) {
  PageCache cache(1 << 20);
  cache.fill(1, 0, 4096);
  EXPECT_EQ(cache.miss_bytes(2, 0, 4096), 4096u);
  cache.invalidate_object(1);
  EXPECT_EQ(cache.miss_bytes(1, 0, 4096), 4096u);
}

TEST(PageCache, LruEvictionOrder) {
  PageCache cache(4 * 4096);  // 4 pages
  cache.fill(1, 0, 4 * 4096);  // pages 0..3
  // Touch page 0 so page 1 becomes LRU.
  EXPECT_EQ(cache.miss_bytes(1, 0, 4096), 0u);
  // Insert a new page; page 1 should be evicted.
  cache.fill(1, 4 * 4096, 4096);
  EXPECT_EQ(cache.miss_bytes(1, 0, 4096), 0u);          // page 0 still in
  EXPECT_EQ(cache.miss_bytes(1, 4096, 4096), 4096u);    // page 1 evicted
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(PageCache, ZeroCapacityNeverCaches) {
  PageCache cache(0);
  cache.fill(1, 0, 8192);
  EXPECT_EQ(cache.miss_bytes(1, 0, 8192), 8192u);
  EXPECT_EQ(cache.resident_pages(), 0u);
}

TEST(PageCache, ZeroLengthRange) {
  PageCache cache(1 << 20);
  EXPECT_EQ(cache.miss_bytes(1, 0, 0), 0u);
  cache.fill(1, 0, 0);
  EXPECT_EQ(cache.resident_pages(), 0u);
}

TEST(PageCache, HitMissCounters) {
  PageCache cache(1 << 20);
  cache.miss_bytes(9, 0, 4096);
  cache.fill(9, 0, 4096);
  cache.miss_bytes(9, 0, 4096);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

}  // namespace
}  // namespace vread::mem
