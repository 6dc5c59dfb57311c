// Byte buffer with deterministic payload generation and checksums.
//
// Real bytes flow through every simulated data path (virtio rings, TCP
// streams, the vRead shared-memory ring, RDMA transfers), so the integrity
// property suite can assert byte-identical delivery on all of them. The
// cost model charges every modeled copy explicitly, so the simulator
// itself need not repeat them: a Buffer is a view (offset, length) of
// reference-counted storage. Copying or slicing shares the storage; a
// mutating call (non-const data(), operator[], growing resize(), append())
// first copies the viewed bytes into private storage when anyone else
// shares them (copy-on-write), so no holder ever sees another's writes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "mem/checksum.h"

namespace vread::mem {

class Buffer {
 public:
  Buffer() = default;
  // `size` zero bytes.
  explicit Buffer(std::size_t size) : store_(std::make_shared<std::uint8_t[]>(size)),
                                      cap_(size), len_(size) {}
  Buffer(const std::uint8_t* p, std::size_t n) : Buffer(for_overwrite(n)) {
    if (n > 0) std::memcpy(store_.get(), p, n);
  }

  Buffer(const Buffer&) = default;
  Buffer& operator=(const Buffer&) = default;
  Buffer(Buffer&& o) noexcept
      : store_(std::move(o.store_)), cap_(std::exchange(o.cap_, 0)),
        off_(std::exchange(o.off_, 0)), len_(std::exchange(o.len_, 0)) {}
  Buffer& operator=(Buffer&& o) noexcept {
    if (this != &o) {
      store_ = std::move(o.store_);
      cap_ = std::exchange(o.cap_, 0);
      off_ = std::exchange(o.off_, 0);
      len_ = std::exchange(o.len_, 0);
    }
    return *this;
  }

  // `n` bytes of unspecified content, for callers that overwrite every
  // byte before reading any (no zero-fill pass).
  static Buffer for_overwrite(std::size_t n) {
    Buffer b;
    b.store_ = std::make_shared_for_overwrite<std::uint8_t[]>(n);
    b.cap_ = b.len_ = n;
    return b;
  }

  // Deterministic pseudo-random content: byte i of stream `seed` is a pure
  // function of (seed, absolute_offset + i), so any sub-range of a file can
  // be regenerated and verified independently.
  static Buffer deterministic(std::uint64_t seed, std::uint64_t absolute_offset,
                              std::size_t size) {
    Buffer b = for_overwrite(size);
    std::uint8_t* out = b.store_.get();
    for (std::size_t i = 0; i < size; ++i) out[i] = byte_at(seed, absolute_offset + i);
    return b;
  }

  static std::uint8_t byte_at(std::uint64_t seed, std::uint64_t offset) {
    std::uint64_t z = seed + offset * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::uint8_t>(z ^ (z >> 31));
  }

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::uint8_t* data() {
    unshare();
    return store_.get() + off_;
  }
  const std::uint8_t* data() const { return store_.get() + off_; }
  std::uint8_t& operator[](std::size_t i) { return data()[i]; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }

  // Private room for `n` bytes, so appends up to that size copy each byte
  // once instead of regrowing.
  void reserve(std::size_t n) {
    if (n > len_) reserve_private(n);
  }

  void append(const Buffer& other) {
    if (!store_) {
      *this = other;  // no storage of its own yet: share instead of copying
      return;
    }
    append(other.data(), other.size());
  }
  void append(const std::uint8_t* p, std::size_t n) {
    if (n == 0) return;
    // Holds the old storage until the copy below: `p` may point into it.
    const std::shared_ptr<std::uint8_t[]> old = reserve_private(len_ + n);
    std::memcpy(store_.get() + off_ + len_, p, n);
    len_ += n;
  }

  // Shares the storage; throws std::out_of_range unless the range lies
  // within this view.
  Buffer slice(std::size_t offset, std::size_t len) const {
    if (offset > len_ || len > len_ - offset) {
      throw std::out_of_range("Buffer::slice past the end of the view");
    }
    Buffer b;
    if (len == 0) return b;
    b.store_ = store_;
    b.cap_ = cap_;
    b.off_ = off_ + offset;
    b.len_ = len;
    return b;
  }

  // Shrinking narrows the view; growing appends zero bytes.
  void resize(std::size_t n) {
    if (n <= len_) {
      len_ = n;
      return;
    }
    reserve_private(n);
    std::memset(store_.get() + off_ + len_, 0, n - len_);
    len_ = n;
  }

  // These bytes in storage of exactly their size: this buffer shared when
  // it already views all of its storage, otherwise a private copy. Holders
  // of long-lived entries use it so a small slice never pins a large parent.
  Buffer compact() const {
    if (off_ == 0 && len_ == cap_) return *this;
    return Buffer(data(), len_);
  }

  std::uint64_t checksum() const { return Checksum().update(data(), len_).digest(); }

  bool operator==(const Buffer& other) const {
    return len_ == other.len_ && (len_ == 0 || std::memcmp(data(), other.data(), len_) == 0);
  }

 private:
  // Copies the viewed bytes into private storage if anyone else shares it.
  void unshare() {
    if (store_.use_count() > 1) reserve_private(len_);
  }

  // Ensures private storage with room for `n` bytes from the view's start;
  // returns the storage it replaced (empty if none was replaced).
  std::shared_ptr<std::uint8_t[]> reserve_private(std::size_t n) {
    if (store_.use_count() == 1 && off_ + n <= cap_) return {};
    const std::size_t cap = n > len_ ? std::max(n, 2 * len_) : n;
    std::shared_ptr<std::uint8_t[]> fresh = std::make_shared_for_overwrite<std::uint8_t[]>(cap);
    if (len_ > 0) std::memcpy(fresh.get(), store_.get() + off_, len_);
    std::shared_ptr<std::uint8_t[]> old = std::exchange(store_, std::move(fresh));
    cap_ = cap;
    off_ = 0;
    return old;
  }

  std::shared_ptr<std::uint8_t[]> store_;
  std::size_t cap_ = 0;  // bytes allocated in store_
  std::size_t off_ = 0;  // view start within store_
  std::size_t len_ = 0;  // view length
};

inline Checksum& Checksum::update(const Buffer& b) { return update(b.data(), b.size()); }

}  // namespace vread::mem
