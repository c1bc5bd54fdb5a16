// Internal entry points shared between the fork engine translation units.
#ifndef ODF_SRC_CORE_FORK_INTERNAL_H_
#define ODF_SRC_CORE_FORK_INTERNAL_H_

#include "src/core/fork.h"

namespace odf {

// Classic fork's copy_page_range analog (fork_classic.cc). Returns false on an
// unrecoverable mid-copy allocation failure (child partially built; caller tears it down).
// A failed child PTE-table allocation degrades to ODF-style sharing of the parent's table
// for that chunk instead of failing the fork (DegradeFlavor::kClassicShareTable).
bool ClassicCopyPageTables(AddressSpace& parent, AddressSpace& child, ForkProfile* profile,
                           ForkCounters* counters);

// On-demand-fork's share-last-level walk (fork_odf.cc). With share_pmd_tables, PMD tables
// are shared as well (the §4 huge-page generalization). Returns false on an unrecoverable
// mid-copy allocation failure. A failed child PMD-table allocation degrades to sharing the
// parent's whole PMD table write-protected at the PUD (DegradeFlavor::kOdfSharePmd) — the
// kOnDemandHuge mechanism used as a zero-allocation fallback.
bool OnDemandSharePageTables(AddressSpace& parent, AddressSpace& child, ForkProfile* profile,
                             ForkCounters* counters, bool share_pmd_tables);

}  // namespace odf

#endif  // ODF_SRC_CORE_FORK_INTERNAL_H_
