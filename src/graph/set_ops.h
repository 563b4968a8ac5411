// Adaptive set-intersection kernels over vertex-id sets.
//
// Every protocol in the paper bottoms out in set intersection over
// randomized-response releases, and at practical ε those releases are
// *dense*: the expected noisy degree is d(1-p) + (n-d)p, so at ε = 1
// (p ≈ 0.269) a noisy row covers ~27% of the opposite layer. One scalar
// sorted merge cannot serve that whole density range well, so this module
// provides two set representations and four kernels, plus a dispatcher
// that picks the kernel from the operand representations and, for two
// sorted sets, their size ratio:
//
//   representation      kernel                    regime
//   ------------------  ------------------------  --------------------------
//   sorted × sorted     IntersectScalarMerge      comparable sizes
//   sorted × sorted     IntersectGalloping        skewed sizes (kGallopRatio)
//   bitmap × bitmap     IntersectBitmapAnd        every bitmap pair (word
//                                                 AND + popcount; SIMD below)
//   sorted × bitmap     IntersectProbeBitmap      sparse × dense (O(1) probes)
//   bitmap × bitmap,    BitmapAndCounts           one-vs-many batches (word
//     many pairs                                  slices that stay in L2,
//                                                 four partners per load of
//                                                 a shared source)
//
// BitmapAndCounts is not a dispatcher choice: the query service calls it
// on a chunk's Naive/OneR pairs, and it equals IntersectBitmapAnd pair
// for pair.
//
// The word kernels (AND + popcount, four-partner AND + popcount,
// DenseBitset::Count) dispatch at runtime onto per-ISA implementations —
// portable scalar, AVX2 nibble-LUT popcount, AVX-512 vpopcntq — probed
// via CPUID in util/cpu_features and overridable with CNE_SIMD_LEVEL for
// tests and benches (see set_ops_kernels.h).
//
// Alignment contract: DenseBitset word storage is 64-byte aligned, so a
// 512-bit vector load of words [8k, 8k+8) never splits a cache line and
// the AVX-512 kernels need no peeling prologue. SetView::Bitmap operands
// inherit the contract from the DenseBitset they borrow.
//
// All kernels return exactly the same count on equivalent inputs at every
// ISA level; the property tests (tests/graph/set_ops_test.cc,
// tests/graph/simd_parity_test.cc) enforce this at every level the
// machine can execute.

#ifndef CNE_GRAPH_SET_OPS_H_
#define CNE_GRAPH_SET_OPS_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.h"

namespace cne {

namespace detail {

/// Minimal over-aligning allocator: storage for DenseBitset words. The
/// 64-byte alignment is a correctness-adjacent perf contract (see the
/// header comment), not an optimization a future refactor may drop.
template <typename T, std::size_t Alignment>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }

  // Value-less construction default-initializes, so resize() leaves words
  // unwritten (DenseBitset::Uninitialized); an explicit value is copied.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

}  // namespace detail

/// 64-byte-aligned word storage — the representation behind DenseBitset.
/// Unlike std::vector<uint64_t>, value-less growth does NOT zero: the
/// count constructor AlignedWordVector(n) and resize(n) leave the new
/// words holding whatever the allocation held (DenseBitset::Uninitialized
/// relies on it). Pass the value explicitly — AlignedWordVector(n, 0),
/// resize(n, 0) — wherever the words must read as zero.
using AlignedWordVector =
    std::vector<uint64_t, detail::AlignedAllocator<uint64_t, 64>>;

/// Packed bitmap over the id domain [0, NumBits()): bit i is stored in word
/// i/64. The dense-set representation behind NoisyNeighborSet's bitmap
/// storage mode and the bitmap intersection kernels. Word storage is
/// 64-byte aligned (alignment contract above).
class DenseBitset {
 public:
  DenseBitset() = default;

  /// An all-zero bitset over `num_bits` ids. The trailing partial word (when
  /// num_bits is not a multiple of 64) is kept zero beyond bit num_bits.
  explicit DenseBitset(VertexId num_bits)
      : words_((static_cast<size_t>(num_bits) + 63) / 64, 0),
        num_bits_(num_bits) {}

  /// A bitset over `num_bits` ids whose words are allocated but left
  /// unwritten, for a producer that then writes every word through
  /// MutableWords(). Separates allocating the storage from the first
  /// touch of its pages, so the two can happen on different threads.
  static DenseBitset Uninitialized(VertexId num_bits);

  VertexId NumBits() const { return num_bits_; }

  void Set(VertexId i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }

  bool Test(VertexId i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  /// Number of set bits (popcount over all words, SIMD-dispatched).
  uint64_t Count() const;

  std::span<const uint64_t> Words() const { return words_; }

  /// Writable word storage, for producers that fill whole words (the RR
  /// bitmap sampler). The writer must leave every bit at or beyond
  /// NumBits() zero.
  std::span<uint64_t> MutableWords() { return words_; }

  /// Set bits in ascending id order; no sort needed, bit iteration is
  /// naturally ordered. `hint` pre-reserves the output.
  std::vector<VertexId> ToSortedVector(size_t hint = 0) const;

 private:
  AlignedWordVector words_;
  VertexId num_bits_ = 0;
};

/// A borrowed, read-only view of a vertex-id set in either representation.
/// The dispatcher's operand type: build one with SetView::Sorted (over any
/// sorted unique span, e.g. a CSR adjacency list) or SetView::Bitmap, and
/// the viewed storage must outlive the view.
class SetView {
 public:
  static SetView Sorted(std::span<const VertexId> ids) {
    SetView v;
    v.sorted_ = ids;
    v.size_ = ids.size();
    return v;
  }

  /// `size` is the number of set bits; pass it when cached (NoisyNeighborSet
  /// caches it) to avoid a popcount pass.
  static SetView Bitmap(const DenseBitset& bits, uint64_t size) {
    SetView v;
    v.bitmap_ = &bits;
    v.size_ = size;
    return v;
  }

  bool IsBitmap() const { return bitmap_ != nullptr; }
  uint64_t Size() const { return size_; }
  std::span<const VertexId> sorted() const { return sorted_; }
  const DenseBitset& bitmap() const { return *bitmap_; }

 private:
  std::span<const VertexId> sorted_{};
  const DenseBitset* bitmap_ = nullptr;
  uint64_t size_ = 0;
};

/// Sorted × sorted size ratio at which both dispatchers switch from the
/// scalar merge to galloping search: galloping runs when
/// large / (small + 1) >= kGallopRatio. Set from a merge-vs-galloping
/// sweep over |small| = 16..16384 (docs/ARCHITECTURE.md, "Runtime ISA
/// dispatch and the kernel dispatch rule"). The crossover sat at a ratio
/// of about 5 up to |small| = 2048 and drifted to 16-32 at 4096-8192;
/// this one ratio kept every cell within 1.5× of the faster kernel.
inline constexpr uint64_t kGallopRatio = 4;

/// Scalar two-pointer merge over two sorted unique id ranges. The baseline
/// every other kernel must agree with.
uint64_t IntersectScalarMerge(std::span<const VertexId> a,
                              std::span<const VertexId> b);

/// Galloping (exponential-then-binary search) intersection for skewed
/// sorted × sorted sizes: each element of the smaller range is located in
/// the larger one in O(log gap). Swaps internally so argument order does
/// not matter.
uint64_t IntersectGalloping(std::span<const VertexId> a,
                            std::span<const VertexId> b);

/// Dense × dense kernel: word AND + popcount, SIMD-dispatched (AVX2
/// nibble-LUT / AVX-512 vpopcntq). The bitsets may cover different
/// domains; bits beyond the shorter domain cannot intersect.
uint64_t IntersectBitmapAnd(const DenseBitset& a, const DenseBitset& b);

/// Sparse × dense kernel: probe each sorted id into the bitmap, O(1) per
/// probe. Ids at or beyond the bitmap's domain count as absent.
uint64_t IntersectProbeBitmap(std::span<const VertexId> probes,
                              const DenseBitset& bits);

/// Adaptive dispatcher. The representations fix the kernel (bitmap ×
/// bitmap → word AND, sorted × bitmap → probe); a sorted × sorted pair
/// runs galloping at kGallopRatio and the scalar merge below it. Always
/// equals IntersectScalarMerge on the equivalent sorted inputs.
uint64_t IntersectionSize(const SetView& a, const SetView& b);

/// Name of the kernel the dispatcher would run for (a, b); for logs and
/// test messages.
const char* DispatchedKernelName(const SetView& a, const SetView& b);

/// One intersection of a blocked counts pass: `source` ∧ `partner`.
struct BitmapPair {
  const DenseBitset* source = nullptr;
  const DenseBitset* partner = nullptr;
};

/// Word-slice width of BitmapAndCounts. A chunk of hot-set pairs touches
/// a few hundred views; at 1,024 words (8 KB) per view, one slice of each
/// fits in a 2 MB L2. Set from a 256/512/1,024/2,048-word sweep over the
/// hot-set shape (docs/BENCHMARKS.md, "Blocked bitmap pair counts").
inline constexpr size_t kPairSliceWords = 1024;

/// counts[i] = IntersectBitmapAnd(*pairs[i].source, *pairs[i].partner)
/// for every pair, computed as one blocked pass: the words are walked in
/// kPairSliceWords slices, every pair's slice before any pair's next, and
/// each run of pairs sharing a source (a group) ANDs the source's slice
/// against four partners per load. Any order of pairs gives the same
/// counts; laying them out group by group is what makes the pass fast.
/// A pair's two bitsets must span one domain (two views of one layer
/// do; pairs of different layers may mix), and `counts` must have one
/// entry per pair; either violation is fatal.
void BitmapAndCounts(std::span<const BitmapPair> pairs,
                     std::span<uint64_t> counts);

}  // namespace cne

#endif  // CNE_GRAPH_SET_OPS_H_
