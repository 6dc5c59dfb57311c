// Unit and property tests for the filesystem substrate: disk images, the
// on-image SimFs, and the host-side LoopMount with snapshot staleness.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fs/disk_image.h"
#include "fs/loop_mount.h"
#include "fs/simfs.h"

namespace vread::fs {
namespace {

using mem::Buffer;

DiskImagePtr make_image(std::uint64_t mb = 64) {
  return std::make_shared<DiskImage>(mb * 1024 * 1024);
}

TEST(DiskImage, ReadBackWhatWasWritten) {
  DiskImage img(1 << 20);
  Buffer data = Buffer::deterministic(1, 0, 10'000);
  img.write(1234, data);
  EXPECT_EQ(img.read(1234, 10'000), data);
}

TEST(DiskImage, UnwrittenRegionsReadZero) {
  DiskImage img(1 << 20);
  Buffer z = img.read(500'000, 64);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_EQ(z[i], 0);
}

TEST(DiskImage, WritesSpanChunkBoundaries) {
  DiskImage img(4 * DiskImage::kChunkSize);
  Buffer data = Buffer::deterministic(2, 0, DiskImage::kChunkSize + 999);
  std::uint64_t off = DiskImage::kChunkSize - 77;
  img.write(off, data);
  EXPECT_EQ(img.read(off, data.size()), data);
}

TEST(DiskImage, SparseAllocation) {
  DiskImage img(1ULL << 40);  // 1 TB logical
  img.write(1ULL << 39, reinterpret_cast<const std::uint8_t*>("x"), 1);
  EXPECT_LE(img.allocated_bytes(), 2 * DiskImage::kChunkSize);
  // An adopted chunk plus a partial edge chunk: two more, wherever they land.
  img.write(1ULL << 38, Buffer::deterministic(1, 0, DiskImage::kChunkSize + 1));
  EXPECT_LE(img.allocated_bytes(), 4 * DiskImage::kChunkSize);
  EXPECT_EQ(img.size(), 1ULL << 40);
}

constexpr std::uint64_t kChunk = DiskImage::kChunkSize;

TEST(DiskImage, AdoptsWholeChunksAtAnUnalignedSourceOffset) {
  DiskImage img(8 * kChunk);
  // Source byte 300 lands on chunk 1's first byte: chunks 1-3 are whole
  // slices of the source at an unaligned offset, chunks 0 and 4 are edges.
  const Buffer src = Buffer::deterministic(5, 0, 3 * kChunk + 1000);
  const std::uint64_t at = kChunk - 300;
  img.write(at, src);
  const Buffer back = img.read(at, src.size());
  ASSERT_EQ(back.size(), src.size());
  for (std::uint64_t i = 0; i < src.size(); ++i) {
    if (back[i] != Buffer::byte_at(5, i)) FAIL() << "byte " << i;
  }
  const Buffer chunk2 = img.read(2 * kChunk, kChunk);
  EXPECT_EQ(chunk2.data(), src.data() + 300 + kChunk);  // shared, not copied
  EXPECT_EQ(img.allocated_bytes(), 5 * kChunk);
}

TEST(DiskImage, PartialEdgeChunksMergeWithBytesAlreadyThere) {
  DiskImage img(4 * kChunk);
  const Buffer old_bytes = Buffer::deterministic(1, 0, 2 * kChunk);
  img.write(0, old_bytes);
  // Half of chunk 0 and half of chunk 1 (both edges), then an edge into the
  // never-written chunk 2, whose other bytes stay zero.
  const Buffer mid = Buffer::deterministic(2, 0, kChunk);
  img.write(kChunk / 2, mid);
  img.write(2 * kChunk + 10, Buffer::deterministic(3, 0, 20));

  EXPECT_EQ(img.read(0, kChunk / 2), old_bytes.slice(0, kChunk / 2));
  EXPECT_EQ(img.read(kChunk / 2, kChunk), mid);
  EXPECT_EQ(img.read(3 * kChunk / 2, kChunk / 2), old_bytes.slice(3 * kChunk / 2, kChunk / 2));
  EXPECT_EQ(img.read(2 * kChunk, 10), Buffer(10));
  EXPECT_EQ(img.read(2 * kChunk + 10, 20), Buffer::deterministic(3, 0, 20));
  EXPECT_EQ(img.read(2 * kChunk + 30, kChunk - 30), Buffer(kChunk - 30));
}

TEST(DiskImage, WriteToOneImageLeavesASharedPreloadUnchanged) {
  DiskImage a(4 * kChunk), b(4 * kChunk);
  const Buffer preload = Buffer::deterministic(7, 0, 2 * kChunk);
  a.write(0, preload);
  b.write(0, preload);
  const Buffer in_a = a.read(0, kChunk), in_b = b.read(0, kChunk);
  EXPECT_EQ(in_a.data(), in_b.data());  // one copy

  const std::uint8_t patch[3] = {1, 2, 3};
  a.write(100, patch, sizeof patch);                          // raw bytes
  a.write(kChunk, Buffer::deterministic(8, 0, kChunk));       // whole chunk
  EXPECT_EQ(b.read(0, preload.size()), preload);
  EXPECT_EQ(a.read(100, 3), Buffer(patch, 3));
  EXPECT_EQ(a.read(kChunk, kChunk), Buffer::deterministic(8, 0, kChunk));
  EXPECT_EQ(a.read(0, 100), preload.slice(0, 100));
}

TEST(DiskImage, MutatingTheSourceAfterWriteLeavesTheImageUnchanged) {
  DiskImage img(4 * kChunk);
  Buffer src = Buffer::deterministic(9, 0, 2 * kChunk);
  img.write(0, src);
  src[5] ^= 0xff;
  src.data()[kChunk + 1] ^= 0xff;
  EXPECT_EQ(img.read(0, 2 * kChunk), Buffer::deterministic(9, 0, 2 * kChunk));
}

TEST(DiskImage, IdsAreUnique) {
  DiskImage a(4096), b(4096);
  EXPECT_NE(a.id(), b.id());
}

TEST(SimFs, FormatAndReopen) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  EXPECT_EQ(fs.superblock().magic, kFsMagic);
  // Reopen from the same image parses the same superblock.
  SimFs again(img);
  EXPECT_EQ(again.superblock().generation, fs.superblock().generation);
  EXPECT_EQ(again.superblock().root_inode, fs.superblock().root_inode);
}

TEST(SimFs, OpenUnformattedImageThrows) {
  auto img = make_image(1);
  EXPECT_THROW(SimFs fs(img), FsError);
}

TEST(SimFs, CreateWriteRead) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  Buffer data = Buffer::deterministic(7, 0, 100'000);
  std::uint32_t ino = fs.write_file("/blk_001", data);
  EXPECT_EQ(fs.file_size(ino), 100'000u);
  EXPECT_EQ(fs.read(ino, 0, 100'000), data);
}

TEST(SimFs, SubRangeReadsMatch) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  Buffer data = Buffer::deterministic(8, 0, 50'000);
  std::uint32_t ino = fs.write_file("/f", data);
  EXPECT_EQ(fs.read(ino, 10'000, 5'000), data.slice(10'000, 5'000));
  EXPECT_EQ(fs.read(ino, 49'999, 1), data.slice(49'999, 1));
  // Reads past EOF are clamped.
  EXPECT_EQ(fs.read(ino, 49'000, 10'000).size(), 1'000u);
}

TEST(SimFs, AppendExtendsFile) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  std::uint32_t ino = fs.create("/f");
  Buffer a = Buffer::deterministic(9, 0, 6'000);
  Buffer b = Buffer::deterministic(9, 6'000, 6'000);
  fs.append(ino, a);
  fs.append(ino, b);
  EXPECT_EQ(fs.file_size(ino), 12'000u);
  EXPECT_EQ(fs.read(ino, 0, 12'000), Buffer::deterministic(9, 0, 12'000));
}

TEST(SimFs, UnalignedAppendsPreserveContent) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  std::uint32_t ino = fs.create("/f");
  std::uint64_t off = 0;
  for (std::uint64_t n : {1ULL, 4095ULL, 4096ULL, 4097ULL, 123ULL, 20000ULL}) {
    fs.append(ino, Buffer::deterministic(5, off, n));
    off += n;
  }
  EXPECT_EQ(fs.read(ino, 0, off), Buffer::deterministic(5, 0, off));
}

TEST(SimFs, DirectoriesNest) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  fs.mkdir("/data");
  fs.mkdir("/data/current");
  fs.write_file("/data/current/blk_1", Buffer::deterministic(1, 0, 100));
  fs.write_file("/data/current/blk_2", Buffer::deterministic(2, 0, 100));
  EXPECT_TRUE(fs.exists("/data/current/blk_1"));
  EXPECT_FALSE(fs.exists("/data/current/blk_3"));
  auto entries = fs.list("/data/current");
  EXPECT_EQ(entries.size(), 2u);
}

TEST(SimFs, CreateDuplicateThrows) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  fs.create("/f");
  EXPECT_THROW(fs.create("/f"), FsError);
}

TEST(SimFs, MissingParentThrows) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  EXPECT_THROW(fs.create("/nodir/f"), FsError);
}

TEST(SimFs, RemoveAndRename) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  fs.write_file("/a", Buffer::deterministic(1, 0, 10));
  fs.rename("/a", "/b");
  EXPECT_FALSE(fs.exists("/a"));
  EXPECT_TRUE(fs.exists("/b"));
  fs.remove("/b");
  EXPECT_FALSE(fs.exists("/b"));
}

TEST(SimFs, GenerationBumpsOnEveryMutation) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  std::uint64_t g0 = fs.generation();
  fs.mkdir("/d");
  std::uint64_t g1 = fs.generation();
  EXPECT_GT(g1, g0);
  std::uint32_t ino = fs.create("/d/f");
  std::uint64_t g2 = fs.generation();
  EXPECT_GT(g2, g1);
  fs.append(ino, Buffer::deterministic(1, 0, 10));
  EXPECT_GT(fs.generation(), g2);
}

TEST(SimFs, ImageFullThrows) {
  auto img = std::make_shared<DiskImage>(64 * 4096);  // tiny: 64 blocks
  SimFs fs = SimFs::format(img, 16);
  std::uint32_t ino = fs.create("/f");
  EXPECT_THROW(fs.append(ino, Buffer::deterministic(1, 0, 10 * 1024 * 1024)), FsError);
}

TEST(SimFs, ManyFilesSurviveNamespaceChurn) {
  auto img = make_image(128);
  SimFs fs = SimFs::format(img);
  fs.mkdir("/current");
  for (int i = 0; i < 100; ++i) {
    std::string path = "/current/blk_" + std::to_string(i);
    fs.write_file(path, Buffer::deterministic(static_cast<std::uint64_t>(i), 0, 5000));
  }
  for (int i = 0; i < 100; ++i) {
    std::string path = "/current/blk_" + std::to_string(i);
    auto ino = fs.lookup(path);
    ASSERT_TRUE(ino.has_value()) << path;
    EXPECT_EQ(fs.read(*ino, 0, 5000),
              Buffer::deterministic(static_cast<std::uint64_t>(i), 0, 5000));
  }
}

// --- LoopMount: the vRead staleness/remount mechanism ---

TEST(LoopMount, SeesFilesPresentAtMountTime) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  Buffer data = Buffer::deterministic(3, 0, 20'000);
  fs.write_file("/blk", data);
  LoopMount mount(img);
  auto ino = mount.lookup("/blk");
  ASSERT_TRUE(ino.has_value());
  EXPECT_EQ(mount.read(*ino, 0, 20'000), data);
  EXPECT_FALSE(mount.stale());
}

TEST(LoopMount, NewFilesInvisibleUntilRefresh) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  LoopMount mount(img);
  fs.write_file("/blk_new", Buffer::deterministic(4, 0, 1000));
  // Guest wrote after the mount snapshot: invisible + stale flag set.
  EXPECT_FALSE(mount.lookup("/blk_new").has_value());
  EXPECT_TRUE(mount.stale());
  mount.refresh();
  EXPECT_TRUE(mount.lookup("/blk_new").has_value());
  EXPECT_FALSE(mount.stale());
}

TEST(LoopMount, AppendedBytesInvisibleUntilRefresh) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  std::uint32_t ino = fs.create("/blk");
  fs.append(ino, Buffer::deterministic(5, 0, 1000));
  LoopMount mount(img);
  fs.append(ino, Buffer::deterministic(5, 1000, 1000));
  auto snap = mount.lookup("/blk");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->size, 1000u);  // stale size
  EXPECT_EQ(mount.read(*snap, 0, 999999).size(), 1000u);
  mount.refresh();
  snap = mount.lookup("/blk");
  EXPECT_EQ(snap->size, 2000u);
  EXPECT_EQ(mount.read(*snap, 0, 2000), Buffer::deterministic(5, 0, 2000));
}

TEST(LoopMount, SnapshotsNestedDirectories) {
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  fs.mkdir("/data");
  fs.mkdir("/data/current");
  fs.write_file("/data/current/blk_9", Buffer::deterministic(9, 0, 128));
  LoopMount mount(img);
  EXPECT_TRUE(mount.lookup("/data/current/blk_9").has_value());
  EXPECT_EQ(mount.file_count(), 1u);
}

TEST(LoopMount, WriteOncePropertyMakesStaleReadsCorrect) {
  // Property from the paper: because HDFS blocks are write-once, any block
  // visible in a snapshot reads byte-correct forever even while the guest
  // keeps creating new blocks.
  auto img = make_image(128);
  SimFs fs = SimFs::format(img);
  fs.mkdir("/current");
  fs.write_file("/current/blk_0", Buffer::deterministic(100, 0, 64 * 1024));
  LoopMount mount(img);
  for (int i = 1; i <= 20; ++i) {
    fs.write_file("/current/blk_" + std::to_string(i),
                  Buffer::deterministic(100 + static_cast<std::uint64_t>(i), 0, 64 * 1024));
    auto snap = mount.lookup("/current/blk_0");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(mount.read(*snap, 0, 64 * 1024), Buffer::deterministic(100, 0, 64 * 1024));
  }
  EXPECT_EQ(mount.file_count(), 1u);
  mount.refresh();
  EXPECT_EQ(mount.file_count(), 21u);
  EXPECT_EQ(mount.refresh_count(), 2u);
}

TEST(LoopMount, RemovedFileStillReadableFromSnapshot) {
  // Bump allocation never reuses blocks, so a stale snapshot of a deleted
  // file still reads the old bytes (and refresh makes it disappear).
  auto img = make_image();
  SimFs fs = SimFs::format(img);
  Buffer data = Buffer::deterministic(6, 0, 5000);
  fs.write_file("/blk", data);
  LoopMount mount(img);
  fs.remove("/blk");
  auto snap = mount.lookup("/blk");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(mount.read(*snap, 0, 5000), data);
  mount.refresh();
  EXPECT_FALSE(mount.lookup("/blk").has_value());
}

}  // namespace
}  // namespace vread::fs
