// Per-frame metadata: the simulator's analog of the Linux kernel's `struct page`.
//
// The paper's profiling (Fig. 3) shows that classic fork spends most of its time resolving
// compound heads and atomically incrementing per-page reference counters across the scattered
// `struct page` array. This type reproduces those costs for real: it is stored in a flat
// indexed array of 16-byte entries (four per cache line), refcounts are std::atomic, and
// compound (huge) pages are represented as a head + 511 tails exactly like the kernel.
//
// A frame's bytes are not referenced from here: they sit at a fixed address in the
// allocator's arena (FrameAllocator::MaterializeData), so the metadata only records whether
// they were ever written.
//
// The paper stores the shared-PTE-table reference counter "in a union inside struct page that
// is unused for last-level page tables" (§4). We mirror that with an explicit union:
// `refcount` counts users of a data page, while page-table pages use `pt_share_count` to
// count the address spaces sharing them. A frame is never both.
#ifndef ODF_SRC_PHYS_PAGE_META_H_
#define ODF_SRC_PHYS_PAGE_META_H_

#include <atomic>
#include <cstdint>

namespace odf {

using FrameId = uint32_t;
inline constexpr FrameId kInvalidFrame = 0xffffffffu;

inline constexpr uint64_t kPageShift = 12;
inline constexpr uint64_t kPageSize = 1ULL << kPageShift;  // 4 KiB
inline constexpr uint64_t kHugePageOrder = 9;              // 512 x 4 KiB = 2 MiB
inline constexpr uint64_t kHugePageSize = kPageSize << kHugePageOrder;

// Frame state flags. Stored in one byte; mutated only under the owning subsystem's locks
// (flags are set at allocation and cleared at free, never concurrently toggled).
enum PageFlag : uint8_t {
  kPageFlagAllocated = 1u << 0,     // Frame is owned by someone (not on the free list).
  kPageFlagPageTable = 1u << 1,     // Frame holds a page table (512 x 64-bit entries).
  kPageFlagCompoundHead = 1u << 2,  // First frame of a compound (huge) page.
  kPageFlagCompoundTail = 1u << 3,  // Non-first frame of a compound page.
  kPageFlagAnon = 1u << 4,          // Backs a private anonymous mapping.
  kPageFlagFile = 1u << 5,          // Owned by the page cache (file-backed).
  kPageFlagZeroFill = 1u << 6,      // Logical content is all-zero (the frame is unwritten).
  // The PG_hwpoison analog: the frame took an (injected) uncorrectable memory error. Set
  // under the exclusive MmGate by src/mf via FrameAllocator::MarkHwPoison — never anywhere
  // else (scripts/odf_lint.py `hwpoison-flag`). The flag is permanent: a poisoned frame is
  // quarantined at its final free and never re-enters the allocator (docs/memory-failure.md).
  kPageFlagHwPoison = 1u << 7,
};

struct PageMeta {
  // For data pages: number of page-table entries (in *dedicated* PTE tables) plus other
  // owners (page cache) referencing this frame. Freed when it reaches zero.
  //
  // Under on-demand-fork, a shared PTE table holds ONE reference per page on behalf of all
  // its sharers; the table's pt_share_count stands in for the per-page counts (paper §3.6).
  std::atomic<uint32_t> refcount{0};

  // For page-table pages only (the union analog): number of address spaces whose PMD entries
  // reference this PTE table. 1 == dedicated; >1 == shared via on-demand-fork.
  std::atomic<uint32_t> pt_share_count{0};

  uint8_t flags = 0;

  // Nonzero once the frame's arena bytes may differ from zero: set by MaterializeData (and
  // at allocation for page tables), cleared only when the allocator re-zeroes the bytes of a
  // frame it hands out again. Invariant: clear means the logical content is zero AND the
  // arena bytes are zero, so concurrent first writers need no lock. A compound's state lives
  // on its head and covers all 2 MiB; tails keep theirs clear. The compound order needs no
  // field: kHugePageOrder is the only one, implied by kPageFlagCompoundHead.
  std::atomic<uint8_t> written{0};

  uint16_t reserved = 0;

  // For compound tails: frame id of the head. For heads/singles: the frame's own id.
  FrameId compound_head = kInvalidFrame;

  bool IsPageTable() const { return (flags & kPageFlagPageTable) != 0; }
  bool IsCompoundHead() const { return (flags & kPageFlagCompoundHead) != 0; }
  bool IsCompoundTail() const { return (flags & kPageFlagCompoundTail) != 0; }
  bool IsCompound() const { return (flags & (kPageFlagCompoundHead | kPageFlagCompoundTail)) != 0; }
  bool IsHwPoisoned() const { return (flags & kPageFlagHwPoison) != 0; }
};

static_assert(sizeof(PageMeta) == 16, "four PageMeta entries per 64-byte cache line");

// Resolves a frame's compound head the way the kernel's compound_head() does: tail frames
// redirect to their head. This is the first Fig. 3 hotspot — the cost is the cache miss on
// first touching the PageMeta, which happens for real here because the caller has just
// indexed into the large metadata array.
inline FrameId ResolveCompoundHead(const PageMeta& meta, FrameId frame) {
  if (meta.IsCompoundTail()) {
    return meta.compound_head;
  }
  return frame;
}

}  // namespace odf

#endif  // ODF_SRC_PHYS_PAGE_META_H_
