// Differential fuzz target for the symbolic executor's box splitter.
// The bytes decode into an affine predicate and a launch sub-box; the
// production splitter (closed-form sign cuts) must return exactly the
// box list of the row-scan oracle in tests/ptx/split_oracle.hpp, and
// must fail the 64-mixed-row check on exactly the inputs the oracle
// fails it on.  Any difference aborts the process.
//
// Layout (big-endian, missing bytes read as 0): op, ct_lo (2), rows
// (2), t_lo (2), threads (2), c_ct (2, signed), c_t (2, signed), mode;
// an even mode anchors the zero crossing at (ct_lo + a - 2, t_lo + b
// - 2) for a, b (2 each) plus a signed jitter byte, an odd one reads
// c0 as 4 signed bytes.  Every field is bounded so the whole box's
// range stays far inside the overflow guard run() applies before any
// split.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "../tests/ptx/split_oracle.hpp"
#include "ptx/symexec.hpp"

namespace {

namespace oracle = gpuperf::ptx::split_oracle;
using gpuperf::ptx::CompareOp;
using gpuperf::ptx::detail::AffinePred;
using gpuperf::ptx::detail::Box;
using i64 = std::int64_t;

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  std::uint64_t take(int bytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
      v = v << 8 | (pos_ < size_ ? data_[pos_++] : 0u);
    return v;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  Reader in(data, size);
  AffinePred pred;
  pred.op = static_cast<CompareOp>(in.take(1) % 6);
  Box box;
  box.ct_lo = static_cast<i64>(in.take(2) % 8192);
  box.ct_hi = box.ct_lo + static_cast<i64>(in.take(2) % 4096) + 1;
  box.t_lo = static_cast<i64>(in.take(2) % 1024);
  box.t_hi = box.t_lo + static_cast<i64>(in.take(2) % 1024) + 1;
  pred.c_ct = static_cast<std::int16_t>(in.take(2));
  pred.c_t = static_cast<std::int16_t>(in.take(2));
  if (in.take(1) % 2 == 0) {
    const i64 ct = box.ct_lo + static_cast<i64>(in.take(2) % 8192) - 2;
    const i64 t = box.t_lo + static_cast<i64>(in.take(2) % 2048) - 2;
    const i64 jitter = static_cast<std::int8_t>(in.take(1));
    pred.c0 = -(pred.c_ct * ct + pred.c_t * t) + jitter;
  } else {
    pred.c0 = static_cast<std::int32_t>(in.take(4));
  }

  const oracle::Outcome want =
      oracle::outcome_of([&] { return oracle::split_box(pred, box); });
  const oracle::Outcome got = oracle::outcome_of([&] {
    oracle::Parts parts;
    gpuperf::ptx::detail::split_box(pred, box, parts);
    return parts;
  });
  if (!(got == want)) {
    std::fprintf(stderr,
                 "split_box differs from the row scan: op=%d c0=%lld "
                 "c_ct=%lld c_t=%lld ct=[%lld,%lld) t=[%lld,%lld) "
                 "throws %d/%d, %zu/%zu boxes\n",
                 static_cast<int>(pred.op), static_cast<long long>(pred.c0),
                 static_cast<long long>(pred.c_ct),
                 static_cast<long long>(pred.c_t),
                 static_cast<long long>(box.ct_lo),
                 static_cast<long long>(box.ct_hi),
                 static_cast<long long>(box.t_lo),
                 static_cast<long long>(box.t_hi), want.threw, got.threw,
                 want.parts.size(), got.parts.size());
    std::abort();
  }
  return 0;
}
