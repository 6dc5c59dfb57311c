// Streaming 64-bit payload checksum.
//
// The one byte hash of the simulator: Buffer::checksum(), the DFSIO and
// HBase read drivers and the daemon block cache's hit verification all go
// through it. It folds four independent 64-bit lanes over 32-byte stripes
// of native-endian words, so the hot loop runs at word speed instead of
// byte speed, and carries any partial stripe between update() calls: any
// split of a byte stream hashes to the same value as one update() over all
// of it. The stream length is mixed into the digest, so a zero-padded
// buffer hashes differently from the unpadded one. The empty stream hashes
// to the FNV-1a 64-bit offset basis.
//
// Digests are compared only within one process (payload integrity, not a
// persisted format), so the word order of the host is fine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace vread::mem {

class Buffer;

class Checksum {
 public:
  static constexpr std::uint64_t kEmpty = 0xcbf29ce484222325ULL;  // FNV-1a basis

  Checksum& update(const std::uint8_t* p, std::size_t n) {
    if (n == 0) return *this;
    total_ += n;
    if (tail_len_ > 0) {
      const std::size_t take = n < kStripe - tail_len_ ? n : kStripe - tail_len_;
      std::memcpy(tail_ + tail_len_, p, take);
      tail_len_ += take;
      p += take;
      n -= take;
      if (tail_len_ < kStripe) return *this;
      stripe(tail_);
      tail_len_ = 0;
    }
    for (; n >= kStripe; p += kStripe, n -= kStripe) stripe(p);
    std::memcpy(tail_, p, n);
    tail_len_ = n;
    return *this;
  }
  Checksum& update(const Buffer& b);  // defined in buffer.h

  std::uint64_t digest() const {
    if (total_ == 0) return kEmpty;
    std::uint64_t h;
    if (total_ >= kStripe) {
      h = rotl(lane_[0], 1) + rotl(lane_[1], 7) + rotl(lane_[2], 12) + rotl(lane_[3], 18);
      for (std::uint64_t lane : lane_) h = (h ^ round(0, lane)) * kP1 + kP4;
    } else {
      h = kEmpty + kP5;
    }
    h += total_;
    // The carried partial stripe: whole words, then the last bytes.
    std::size_t i = 0;
    for (; i + 8 <= tail_len_; i += 8) h = rotl(h ^ round(0, load(tail_ + i)), 27) * kP1 + kP4;
    for (; i < tail_len_; ++i) h = rotl(h ^ (tail_[i] * kP5), 11) * kP1;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    return h ^ (h >> 32);
  }

 private:
  static constexpr std::size_t kStripe = 32;
  static constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
  static constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  static constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;
  static constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
  static constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ULL;

  static std::uint64_t rotl(std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }
  static std::uint64_t load(const std::uint8_t* p) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    return w;
  }
  static std::uint64_t round(std::uint64_t lane, std::uint64_t word) {
    return rotl(lane + word * kP2, 31) * kP1;
  }
  void stripe(const std::uint8_t* p) {
    lane_[0] = round(lane_[0], load(p));
    lane_[1] = round(lane_[1], load(p + 8));
    lane_[2] = round(lane_[2], load(p + 16));
    lane_[3] = round(lane_[3], load(p + 24));
  }

  std::uint64_t lane_[4] = {kEmpty + kP1 + kP2, kEmpty + kP2, kEmpty, kEmpty - kP1};
  std::uint8_t tail_[kStripe] = {};
  std::size_t tail_len_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace vread::mem
