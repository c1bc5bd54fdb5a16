// Negative-compile case: the fault path without its shard capability. HandleFault
// requires {AS gate shared, covering shard, MmGate shared}; this driver takes the
// gate scopes but skips the ShardScope. Expected Clang diagnostic: calling function
// 'HandleFault' requires holding mutex 'as.locks().shard_cap' exclusively.
#include "src/mm/fault.h"
#include "src/pt/mm_locks.h"
#include "src/pt/mm_gate.h"

odf::FaultResult DriveFaultMissingShard(odf::AddressSpace& as, odf::Vaddr va) {
  odf::MmLockTable::ReadScope rs(as.locks());
  odf::MmGate::SharedScope gate;
  // VIOLATION: no MmLockTable::ShardScope covering `va`.
  return odf::HandleFault(as, va, odf::AccessType::kRead);
}
