// Growable byte buffer for nonblocking socket I/O: append at the tail,
// consume from the head.  Consumption is O(1) (a head offset); the
// storage compacts lazily once the dead prefix outweighs the live
// bytes, so a long-lived connection that streams gigabytes stays at
// its working-set size.  Parsers read the live region through data()/
// size()/view() without copying, and copy out only a complete request.
#pragma once

#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>

namespace gpuperf::net {

class Buffer {
 public:
  const char* data() const { return storage_.data() + head_; }
  std::size_t size() const { return storage_.size() - head_; }
  bool empty() const { return size() == 0; }
  std::string_view view() const { return {data(), size()}; }

  void append(const void* bytes, std::size_t n) {
    storage_.append(static_cast<const char*>(bytes), n);
  }
  void append(std::string_view bytes) {
    storage_.append(bytes.data(), bytes.size());
  }

  /// Reserve `n` writable bytes at the tail for a recv(); pair every
  /// reserve() with one commit(m), m <= n, to keep the bytes actually
  /// read.  The returned pointer is valid until the next mutation.
  char* reserve(std::size_t n) {
    reserved_base_ = storage_.size();
    storage_.resize(reserved_base_ + n);
    return storage_.data() + reserved_base_;
  }
  void commit(std::size_t n) { storage_.resize(reserved_base_ + n); }

  /// Drop `n` bytes from the head (n <= size()).
  void consume(std::size_t n) {
    head_ += n;
    if (head_ == storage_.size()) {
      storage_.clear();
      head_ = 0;
    } else if (head_ >= kCompactThreshold && head_ * 2 >= storage_.size()) {
      storage_.erase(0, head_);
      head_ = 0;
    }
  }

  void clear() {
    storage_.clear();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kCompactThreshold = 4096;

  std::string storage_;
  std::size_t head_ = 0;
  std::size_t reserved_base_ = 0;
};

}  // namespace gpuperf::net
