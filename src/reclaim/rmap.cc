#include "src/reclaim/rmap.h"

#include <algorithm>
#include <unordered_map>


namespace odf {
namespace reclaim {

ChunkSweep::ChunkSweep(FrameAllocator& allocator, const SpaceList& spaces)
    : allocator_(allocator) {
  // PMD tables shared between spaces (kOnDemandHuge) are walked once.
  std::vector<FrameId> pmd_tables;
  for (const std::shared_ptr<AddressSpace>& as : spaces) {
    if (as->torn_down()) {
      continue;  // Exit released the tables; the process is not reaped yet.
    }
    uint64_t* pgd = allocator.TableEntries(as->pgd());
    for (uint64_t g = 0; g < kEntriesPerTable; ++g) {
      Pte pud_link = LoadEntry(&pgd[g]);
      if (!pud_link.IsPresent()) {
        continue;
      }
      uint64_t* pud = allocator.TableEntries(pud_link.frame());
      for (uint64_t u = 0; u < kEntriesPerTable; ++u) {
        Pte pmd_link = LoadEntry(&pud[u]);
        if (!pmd_link.IsPresent() ||
            std::find(pmd_tables.begin(), pmd_tables.end(), pmd_link.frame()) !=
                pmd_tables.end()) {
          continue;
        }
        pmd_tables.push_back(pmd_link.frame());
        uint64_t* pmd = allocator.TableEntries(pmd_link.frame());
        Vaddr base = (g << EntryShift(PtLevel::kPgd)) | (u << EntryShift(PtLevel::kPud));
        for (uint64_t m = 0; m < kEntriesPerTable; ++m) {
          if (LoadEntry(&pmd[m]).IsPresent()) {
            refs_.push_back(PmdRef{base | (m << EntryShift(PtLevel::kPmd)), &pmd[m]});
          }
        }
      }
    }
  }
  std::stable_sort(refs_.begin(), refs_.end(),
                   [](const PmdRef& a, const PmdRef& b) { return a.chunk < b.chunk; });
  for (size_t i = 0; i < refs_.size(); ++i) {
    if (i == 0 || refs_[i].chunk != refs_[i - 1].chunk) {
      starts_.push_back(i);
    }
  }
  starts_.push_back(refs_.size());
}

size_t ChunkSweep::StepAtOrAfter(Vaddr va) const {
  for (size_t step = 0; step < size(); ++step) {
    if (chunk(step) >= va) {
      return step;
    }
  }
  return 0;
}

void ChunkSweep::Gather(size_t step, std::vector<Mapping>* out) const {
  out->clear();
  ForEachLeaf(step, [out](const Mapping& mapping) { out->push_back(mapping); });
  std::sort(out->begin(), out->end(), [](const Mapping& a, const Mapping& b) {
    return a.frame != b.frame ? a.frame < b.frame : a.slot < b.slot;
  });
}

Rmap::Rmap(FrameAllocator* allocator, std::function<SpaceList()> spaces)
    : allocator_(allocator), spaces_(std::move(spaces)) {}

void Rmap::CollectSlots(FrameId frame, std::vector<uint64_t*>* out) {
  ForEachMapping([&](const Mapping& mapping) {
    if (mapping.frame == frame && !mapping.huge) {
      out->push_back(mapping.slot);
    }
  });
}

uint64_t Rmap::TotalLocations() { return Census().locations; }

size_t Rmap::LocationCount(FrameId frame) {
  MmGate::ExclusiveScope gate;
  size_t count = 0;
  ForEachMapping([&](const Mapping& mapping) { count += mapping.frame == frame ? 1 : 0; });
  return count;
}

RmapCensus Rmap::Census() {
  MmGate::ExclusiveScope gate;
  RmapCensus census;
  // frame -> active; only order-0 anonymous frames age on the CLOCK.
  std::unordered_map<FrameId, bool> frames;
  ForEachMapping([&](const Mapping& mapping) {
    ++census.locations;
    bool& active = frames[mapping.frame];
    active = active || LoadEntry(mapping.slot).IsActive();
  });
  census.frames = frames.size();
  for (const auto& [frame, active] : frames) {
    const PageMeta& meta = allocator_->GetMeta(frame);
    if ((meta.flags & kPageFlagAnon) == 0 || meta.IsCompound()) {
      continue;
    }
    ++(active ? census.active_anon : census.inactive_anon);
  }
  return census;
}

}  // namespace reclaim
}  // namespace odf
