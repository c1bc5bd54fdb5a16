#include "src/proc/process.h"

#include "src/proc/kernel.h"

#include <algorithm>
#include <cstring>

#include "src/debug/verify.h"
#include "src/fi/fault_inject.h"
#include "src/pt/mm_locks.h"
#include "src/pt/mm_gate.h"
#include "src/replay/recorder.h"
#include "src/util/log.h"

namespace odf {

Process::Process(Kernel* kernel, Pid pid, Pid parent, std::unique_ptr<AddressSpace> as)
    : kernel_(kernel), pid_(pid), parent_pid_(parent), as_(std::move(as)) {
  as_->set_owner_pid(pid);
}

bool Process::AccessMemory(Vaddr va, std::byte* buffer, uint64_t length, AccessType access,
                           bool set_memory, std::byte memset_value) {
  ODF_CHECK(state_ == ProcessState::kRunning) << "memory access on exited process " << pid_;
  debug::MutationScope mutation;  // Faults allocate frames and rewrite page tables.
  Kernel::ActiveProcessScope immune(this);  // OOM mid-access must pick another victim.
  AddressSpace& as = *as_;
  FrameAllocator& allocator = as.allocator();
  MmLockTable& locks = as.locks();
  const uint64_t as_id = locks.as_id();
  const bool want_write = access == AccessType::kWrite;
  uint64_t done = 0;
  while (done < length) {
    Vaddr current = va + done;
    uint64_t in_page = current & (kPageSize - 1);
    uint64_t chunk = std::min<uint64_t>(length - done, kPageSize - in_page);
    const uint64_t vpn = current >> kPageShift;

    // Copies one page-chunk to/from `frame`. Always runs with the frame kept alive (a
    // refcount pin on a cache hit, the shard+gate locks on the locked walk) and the
    // MmGate held shared (excludes the evictor mid-copy).
    auto copy_chunk = [&](FrameId frame) {
      if (want_write) {
        std::byte* dest = allocator.MaterializeData(frame) + in_page;
        if (set_memory) {
          std::memset(dest, static_cast<int>(memset_value), chunk);
        } else {
          std::memcpy(dest, buffer + done, chunk);
        }
      } else if (buffer != nullptr) {
        const std::byte* src = allocator.PeekData(frame);
        if (src == nullptr) {
          std::memset(buffer + done, 0, chunk);
        } else {
          std::memcpy(buffer + done, src + in_page, chunk);
        }
      }
    };

#if ODF_MEMORY_FAILURE_COMPILED
    // The injected machine check (fi site mf_ecc): the "hardware" reports an uncorrectable
    // ECC error on the very frame this access resolved to. Consulted exactly once per
    // resolved page on both paths (cache hit, locked walk), so the recorded decision
    // stream is identical no matter which path a replay happens to take. MemoryFailure
    // upgrades any shared gate hold to exclusive for the containment work (mm_gate.h), and
    // the access that consumed the poison is the one that fails — BUS_MCEERR_AR delivery.
    auto ecc_trips = [&](FrameId frame) {
      if (!fi::ShouldInject(FiSite::k_mf_ecc)) {
        return false;
      }
      kernel_->MemoryFailure(frame);
      last_fault_result_ = FaultResult::kHwPoison;
      return true;
    };
#else
    auto ecc_trips = [&](FrameId) { return false; };
#endif

    // Tier 1 — per-thread translation cache (mm_locks.h), the TLB analog. Entirely
    // lock-free: tag probe, pin the cached frame's refcount, recheck the covering shard
    // generation. Writes hit only entries that a WRITE inserted (dirty bit already set at
    // insert time).
    TransCacheEntry& cached = TranslationCache::SlotFor(as_id, vpn);
    if (cached.as_id == as_id && cached.vpn == vpn && (!want_write || cached.write_ok) &&
        cached.gen == locks.ShardGen(current)) {
      MmGate::SharedScope gate;
      if (allocator.TryGetRef(cached.pin)) {
        // Pin-then-recheck: the pin is speculative (the frame may have been freed and
        // reused since the probe), and the generation recheck is what rejects that — any
        // mutator that unmapped this page bumped the shard BEFORE dropping the frame.
        if (cached.gen == locks.ShardGen(current)) {
          FrameId frame = cached.frame;
          FrameId pin = cached.pin;
          if (ecc_trips(frame)) {
            allocator.DecRef(pin);
            return false;
          }
          copy_chunk(frame);
          allocator.DecRef(pin);
          done += chunk;
          continue;
        }
        allocator.DecRef(cached.pin);
      }
    }

    // Tier 2 — the locked walk, taken by every cache miss (read or write): AS gate shared
    // (excludes layout mutators and fork), exactly one 2 MiB-shard mutex (serializes
    // faults on this range only — disjoint-range faults proceed in parallel), MmGate
    // shared (excludes the evictor). Lock order per docs/debugging.md: AS gate -> shard
    // -> MmGate. The walk sets accessed bits and refills the cache.
    {
      MmLockTable::ReadScope rs(locks);
      MmLockTable::ShardScope shard(locks, current);
      MmGate::SharedScope gate;
      ++as.stats().slow_path_translations;
      Translation t = as.walker().Translate(as.pgd(), current, access);
      FrameId frame = t.frame;
      if (t.status != TranslateStatus::kOk) {
        FaultResult result = HandleFault(as, current, access, &frame);
        if (result != FaultResult::kHandled) {
          last_fault_result_ = result;
          return false;
        }
      }
      if (ecc_trips(frame)) {
        return false;
      }
      copy_chunk(frame);
      // Refill the per-thread cache. The generation is read AFTER the fault resolved:
      // under the shard mutex no other thread can bump this shard (range ops hold the AS
      // gate exclusively, the evictor holds the MmGate exclusively), so the value is
      // stable and covers every invalidation the fault itself performed.
      FrameId pin = ResolveCompoundHead(allocator.GetMeta(frame), frame);
      cached = TransCacheEntry{as_id,         vpn, locks.ShardGen(current),
                               frame,         pin, want_write};
    }
    done += chunk;
  }
  last_fault_result_ = FaultResult::kHandled;
  return true;
}

bool Process::WriteMemory(Vaddr va, std::span<const std::byte> data) {
  replay::OpScope op(OpKind::k_write, pid_);
  op.Arg(va).Arg(data.size()).Payload(data);
  // The buffer is only read on the write path; the const_cast never results in mutation.
  bool ok = AccessMemory(va, const_cast<std::byte*>(data.data()), data.size(),
                         AccessType::kWrite, /*set_memory=*/false, std::byte{0});
  op.Status(static_cast<uint64_t>(last_fault_result())).Result(ok ? 1 : 0);
  return ok;
}

bool Process::ReadMemory(Vaddr va, std::span<std::byte> out) {
  replay::OpScope op(OpKind::k_read, pid_);
  op.Arg(va).Arg(out.size());
  bool ok = AccessMemory(va, out.data(), out.size(), AccessType::kRead, /*set_memory=*/false,
                         std::byte{0});
  op.Status(static_cast<uint64_t>(last_fault_result()));
  if (op.active()) {
    // The recorded outcome of a read is a digest of the bytes it returned: replay verifies
    // the replayed kernel serves the same data, not just the same verdict.
    op.Result(ok ? replay::Fnv1aBytes(out.data(), out.size()) : 0);
  }
  return ok;
}

bool Process::MemsetMemory(Vaddr va, std::byte value, uint64_t length) {
  replay::OpScope op(OpKind::k_memset, pid_);
  op.Arg(va).Arg(static_cast<uint64_t>(value)).Arg(length);
  bool ok = AccessMemory(va, nullptr, length, AccessType::kWrite, /*set_memory=*/true, value);
  op.Status(static_cast<uint64_t>(last_fault_result())).Result(ok ? 1 : 0);
  return ok;
}

void Process::set_fork_mode(ForkMode mode) {
  replay::OpScope op(OpKind::k_set_fork_mode, pid_);
  op.Arg(static_cast<uint64_t>(mode));
  fork_mode_ = mode;
}

uint64_t Process::LoadU64(Vaddr va) {
  uint64_t value = 0;
  ODF_CHECK(ReadMemory(va, std::as_writable_bytes(std::span(&value, 1))))
      << "SEGV reading u64 at " << va;
  return value;
}

void Process::StoreU64(Vaddr va, uint64_t value) {
  ODF_CHECK(WriteMemory(va, std::as_bytes(std::span(&value, 1))))
      << "SEGV writing u64 at " << va;
}

uint32_t Process::LoadU32(Vaddr va) {
  uint32_t value = 0;
  ODF_CHECK(ReadMemory(va, std::as_writable_bytes(std::span(&value, 1))))
      << "SEGV reading u32 at " << va;
  return value;
}

void Process::StoreU32(Vaddr va, uint32_t value) {
  ODF_CHECK(WriteMemory(va, std::as_bytes(std::span(&value, 1))))
      << "SEGV writing u32 at " << va;
}

std::string Process::ReadString(Vaddr va, uint64_t max_length) {
  std::string out;
  out.reserve(max_length);
  for (uint64_t i = 0; i < max_length; ++i) {
    char c = 0;
    if (!ReadMemory(va + i, std::as_writable_bytes(std::span(&c, 1)))) {
      break;
    }
    if (c == '\0') {
      break;
    }
    out.push_back(c);
  }
  return out;
}

Vaddr Process::Mmap(uint64_t length, uint32_t prot, bool huge) {
  replay::OpScope op(OpKind::k_mmap, pid_);
  op.Arg(length).Arg(prot).Arg(huge ? 1 : 0);
  // Gating (AS-gate exclusive + MmGate shared) lives inside AddressSpace now.
  debug::MutationScope mutation;
  Vaddr va = as_->MapAnonymous(length, prot, huge);
  op.Result(va);
  return va;
}

void Process::Munmap(Vaddr start, uint64_t length) {
  replay::OpScope op(OpKind::k_munmap, pid_);
  op.Arg(start).Arg(length);
  {
    debug::MutationScope mutation;
    as_->Unmap(start, length);
  }
  // Zap is where stale-PTE and table-refcount bugs surface; verify the whole kernel after
  // every top-level unmap in debug-vm builds.
  debug::AutoVerifyKernel(*kernel_, "zap");
}

Vaddr Process::Mremap(Vaddr old_start, uint64_t old_length, uint64_t new_length) {
  replay::OpScope op(OpKind::k_mremap, pid_);
  op.Arg(old_start).Arg(old_length).Arg(new_length);
  debug::MutationScope mutation;
  Vaddr va = as_->Remap(old_start, old_length, new_length);
  op.Result(va);
  return va;
}

void Process::MadviseDontNeed(Vaddr start, uint64_t length) {
  replay::OpScope op(OpKind::k_madvise_dontneed, pid_);
  op.Arg(start).Arg(length);
  debug::MutationScope mutation;
  as_->AdviseDontNeed(start, length);
}

bool Process::TouchRange(Vaddr va, uint64_t length, AccessType access) {
  replay::OpScope op(OpKind::k_touch, pid_);
  op.Arg(va).Arg(length).Arg(static_cast<uint64_t>(access));
  for (Vaddr current = PageAlignDown(va); current < va + length; current += kPageSize) {
    std::byte scratch{1};
    bool ok = access == AccessType::kWrite
                  ? WriteMemory(current, std::span(&scratch, 1))
                  : ReadMemory(current, std::span(&scratch, 1));
    if (!ok) {
      op.Status(static_cast<uint64_t>(last_fault_result()));
      return false;
    }
  }
  op.Result(1);
  return true;
}

}  // namespace odf
