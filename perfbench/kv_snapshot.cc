// kv-snapshot: a KvStore served by one thread as an open loop at a fixed offered rate,
// 50/50 Get/Set over seeded keys. Every kKvSnapshotEvery changed keys the server takes an
// on-demand-fork snapshot and a second thread runs the child's SaveSnapshot while the
// server keeps serving, as Redis does with BGSAVE (paper Tab. 4/5). The parent therefore
// pays PTE-table COW and data COW while the child still shares its tables.
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>

#include "perfbench/bench.h"
#include "src/apps/kvstore.h"
#include "src/proc/kernel.h"
#include "src/util/rng.h"

namespace odf::perfbench {
namespace {

// Full size: the dataset of bench/tab04_05_redis.cc in its fast mode (50000 keys of
// 1 KiB values, about 25 PTE tables), snapshotted every 10000 changed keys as there
// (Redis's default `save` threshold), and served at 60k requests/s: about half of the
// 100-150k/s (median 117k/s) this workload completes as a closed loop on the 4-vCPU
// machine it was sized on. NOTES.md has the measurements.
constexpr uint64_t kKvKeys = 50000;
constexpr uint64_t kKvValueSize = 1024;
constexpr uint64_t kKvSnapshotEvery = 10000;
constexpr double kKvOfferedRate = 60000;

struct KvSize {
  uint64_t keys;
  uint64_t value_size;
  uint64_t snapshot_every;  // Changed keys between snapshots.
  double rate;              // Offered requests per second.
};

KvSize SizeFor(const Options& options) {
  if (options.tiny) {
    return {512, 512, 64, 20000};
  }
  return {kKvKeys, kKvValueSize, kKvSnapshotEvery, kKvOfferedRate};
}

const char* const kDumpPath = "/dump.rdb";

inline void CpuRelax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#endif
}

uint64_t RecordHash(std::string_view key, std::string_view value) {
  return HashBytes(value.data(), value.size(), HashBytes(key.data(), key.size()));
}

// The value stored under `key` at `version`: a seeded pseudo-random byte string.
void FillValue(uint64_t seed, uint64_t key, uint32_t version, std::string* value) {
  uint64_t x = Mix64(seed ^ Mix64(key * 0x9e3779b97f4a7c15ULL + version));
  for (size_t i = 0; i < value->size(); i += 8) {
    x = Mix64(x + 0x9e3779b97f4a7c15ULL);
    std::memcpy(value->data() + i, &x, std::min<size_t>(8, value->size() - i));
  }
}

// The snapshot child's task, handed from the server to the snapshot thread.
struct SnapshotJob {
  Process* child = nullptr;
  uint64_t op_id = 0;
  uint64_t digest = 0;  // Model digest at fork time.
  uint64_t keys = 0;
};

// A one-slot hand-off from the server to the snapshot thread.
class Mailbox {
 public:
  void Put(const SnapshotJob& job) {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    full_ = true;
    cv_.notify_one();
  }

  // Waits for a job; false once the mailbox is closed and empty.
  bool Take(SnapshotJob* out) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return full_ || closed_; });
    if (!full_) {
      return false;
    }
    *out = job_;
    full_ = false;
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  SnapshotJob job_;      // Guarded by mutex_.
  bool full_ = false;    // Guarded by mutex_.
  bool closed_ = false;  // Guarded by mutex_.
};

class KvSnapshot : public Workload {
 public:
  explicit KvSnapshot(const Options& options)
      : options_(options), size_(SizeFor(options)), rng_(Mix64(options.seed ^ 0x6b76)) {
    server_ = &kernel_.CreateProcess();
    uint64_t buckets = std::bit_ceil(size_.keys);
    uint64_t heap = size_.keys * (size_.value_size + 64) + (8ULL << 20);
    store_.emplace(KvStore::Create(kernel_, *server_, heap, buckets));
    keys_.reserve(size_.keys);
    version_.assign(size_.keys, 0);
    record_hash_.assign(size_.keys, 0);
    std::string value(size_.value_size, '\0');
    for (uint64_t k = 0; k < size_.keys; ++k) {
      keys_.push_back("key:" + std::to_string(k));
      FillValue(options_.seed, k, 0, &value);
      store_->Set(keys_[k], value);
      record_hash_[k] = RecordHash(keys_[k], value);
      digest_ += record_hash_[k];
    }
  }

  void Prepare(Result* result) override {
    result->Note("kv_snapshot",
                 "{\"keys\": " + std::to_string(size_.keys) +
                     ", \"value_size\": " + std::to_string(size_.value_size) +
                     ", \"snapshot_every\": " + std::to_string(size_.snapshot_every) +
                     ", \"offered_rate\": " + std::to_string(size_.rate) + "}");
    if (options_.corrupt_model) {
      record_hash_[0] ^= 1;  // Key 0's expected value is now wrong.
    }
  }

  ~KvSnapshot() override {
    Phase ignored;
    Quiesce(&ignored);
  }

  Kernel& kernel() override { return kernel_; }
  FaultsInside faults() const override { return FaultsInside::kApps; }

  // The request schedule and the snapshot thread run on from one phase to the next, so a
  // window boundary neither restarts the schedule nor waits for a snapshot: it only cuts
  // the statistics. Quiesce() ends the run of phases.
  void RunPhase(double seconds, bool traced, Phase* phase) override {
    if (!snapshotter_.joinable()) {
      snapshots_.emplace();
      snapshotter_ = std::thread([this] { SnapshotLoop(); });
      phase_end_ns_ = schedule_start_ns_ = NowNs();
      next_request_ = 0;
    }
    phase_end_ns_ += static_cast<uint64_t>(seconds * 1e9);
    double cpu0 = ThreadCpuSeconds();
    Serve(traced, phase);
    phase->driver_cpu_s += ThreadCpuSeconds() - cpu0;
    TakeSnapshotStats(phase);
    phase->forking_threads = 1;
  }

  // Lets the last snapshot finish, reaps it, and stops the snapshot thread.
  void Quiesce(Phase* phase) override {
    if (!snapshotter_.joinable()) {
      return;
    }
    while (job_state_.load(std::memory_order_acquire) == kJobPending) {
      std::this_thread::yield();
    }
    if (job_state_.load(std::memory_order_acquire) == kJobDone) {
      Reap(phase);
    }
    snapshots_->Close();
    snapshotter_.join();
    TakeSnapshotStats(phase);
  }

  void Finish(Result* result) override {
    // Every key must read back as the model says.
    for (uint64_t k = 0; k < size_.keys; ++k) {
      std::optional<std::string> got = store_->Get(keys_[k]);
      if (!got || RecordHash(keys_[k], *got) != record_hash_[k]) {
        result->Fail("final read of " + keys_[k] + " differs from the model");
      }
    }
    kernel_.Exit(*server_, 0);
    kernel_.fs().Remove(kDumpPath);
    CheckAllFree(kernel_, result);
  }

 private:
  enum JobState : int { kJobIdle, kJobPending, kJobDone };

  // Serves every request due before the phase ends, however late it starts, each timed
  // from its due time.
  void Serve(bool traced, Phase* phase) {
    std::string value(size_.value_size, '\0');
    const double interval_ns = 1e9 / size_.rate;
    for (;; ++next_request_) {
      uint64_t due = schedule_start_ns_ +
                     static_cast<uint64_t>(static_cast<double>(next_request_) * interval_ns);
      if (due >= phase_end_ns_) {
        break;
      }
      uint64_t now = NowNs();
      while (now < due) {
        CpuRelax();
        now = NowNs();
      }
      phase->late.Add(now - due);
      ++phase->attempted;
      {
        SpanScope op(SpanKind::kOp);
        if (job_state_.load(std::memory_order_acquire) == kJobDone) {
          Reap(phase);  // The serverCron waitpid: blocks this request.
        }
        uint64_t k = rng_.NextBelow(size_.keys);
        if (rng_.NextBool(0.5)) {
          uint32_t version = version_[k] + 1;
          FillValue(options_.seed, k, version, &value);
          uint64_t cow_before = ReadVm(VmCounter::k_pte_table_cow);
          uint64_t t0 = NowNs();
          {
            SpanScope span(SpanKind::kSet);
            store_->Set(keys_[k], value);
          }
          uint64_t ns = NowNs() - t0;
          phase->set.Add(ns);
          if (ReadVm(VmCounter::k_pte_table_cow) != cow_before) {
            phase->table_cow_set.Add(ns);
          }
          uint64_t h = RecordHash(keys_[k], value);
          digest_ += h - record_hash_[k];
          record_hash_[k] = h;
          version_[k] = version;
          ++changed_;
        } else {
          uint64_t t0 = NowNs();
          std::optional<std::string> got;
          {
            SpanScope span(SpanKind::kGet);
            got = store_->Get(keys_[k]);
          }
          phase->get.Add(NowNs() - t0);
          if (!got || RecordHash(keys_[k], *got) != record_hash_[k]) {
            ++phase->failed;
          }
        }
        if (changed_ >= size_.snapshot_every &&
            job_state_.load(std::memory_order_acquire) == kJobIdle) {
          Snapshot(traced, phase);
        }
      }
      phase->op.Add(NowNs() - due);
      ++phase->ops;
    }
  }

  void Snapshot(bool traced, Phase* phase) {
    ForkProfile profile;
    uint64_t t0 = NowNs();
    Process* child = nullptr;
    {
      SpanScope span(SpanKind::kFork);
      child = kernel_.TryFork(*server_, ForkMode::kOnDemand, traced ? &profile : nullptr);
    }
    uint64_t ns = NowNs() - t0;
    phase->fork.Add(ns);
    phase->fork_ns_total += static_cast<double>(ns);
    ++phase->forks;
    AddProfile(profile, &phase->profile);
    changed_ = 0;
    if (child == nullptr) {
      ++phase->failed;  // Fork rolled back.
      return;
    }
    job_state_.store(kJobPending, std::memory_order_release);
    snapshots_->Put(SnapshotJob{child, CurrentOpId(), digest_, size_.keys});
  }

  void Reap(Phase* phase) {
    uint64_t t0 = NowNs();
    Pid pid;
    {
      SpanScope span(SpanKind::kWait);
      pid = kernel_.Wait(*server_);
    }
    phase->wait.Add(NowNs() - t0);
    if (pid < 0) {
      ++phase->failed;
    }
    job_state_.store(kJobIdle, std::memory_order_release);
  }

  // The child's side of each snapshot, as Redis's BGSAVE child: write the dump and exit.
  // The dump is then checked against the model before the server may reap the child.
  void SnapshotLoop() {
    SnapshotJob job;
    while (snapshots_->Take(&job)) {
      double cpu0 = ThreadCpuSeconds();
      uint64_t t0 = NowNs();
      {
        SpanScope span(SpanKind::kSnapshot, job.op_id);
        KvStore view = KvStore::Attach(kernel_, *job.child, store_->meta_base());
        view.SaveSnapshot(kDumpPath);
      }
      uint64_t snapshot_ns = NowNs() - t0;
      t0 = NowNs();
      {
        SpanScope span(SpanKind::kExit, job.op_id);
        kernel_.Exit(*job.child, 0);
      }
      uint64_t exit_ns = NowNs() - t0;
      bool dump_ok = CheckDump(job);
      {
        std::lock_guard<std::mutex> lock(snap_mutex_);
        snap_phase_.snapshot.Add(snapshot_ns);
        snap_phase_.exit.Add(exit_ns);
        snap_phase_.failed += dump_ok ? 0 : 1;
        snap_phase_.driver_cpu_s += ThreadCpuSeconds() - cpu0;
      }
      job_state_.store(kJobDone, std::memory_order_release);
    }
  }

  // Moves what the snapshot thread measured so far into `phase`.
  void TakeSnapshotStats(Phase* phase) {
    std::lock_guard<std::mutex> lock(snap_mutex_);
    phase->Merge(snap_phase_);
    snap_phase_ = Phase();
  }

  // The dump must hold exactly the model's records as of the fork.
  bool CheckDump(const SnapshotJob& job) {
    std::shared_ptr<MemFile> file = kernel_.fs().Lookup(kDumpPath);
    if (file == nullptr) {
      return false;
    }
    std::vector<std::byte>* bytes = &dump_bytes_;
    bytes->resize(file->size());
    file->Read(0, *bytes);
    uint64_t digest = 0;
    uint64_t records = 0;
    size_t offset = 0;
    while (offset + 8 <= bytes->size()) {
      uint32_t key_len = 0;
      uint32_t val_len = 0;
      std::memcpy(&key_len, bytes->data() + offset, 4);
      std::memcpy(&val_len, bytes->data() + offset + 4, 4);
      offset += 8;
      if (offset + key_len + val_len > bytes->size()) {
        return false;
      }
      std::string_view key(reinterpret_cast<const char*>(bytes->data() + offset), key_len);
      std::string_view value(reinterpret_cast<const char*>(bytes->data() + offset + key_len),
                             val_len);
      digest += RecordHash(key, value);
      ++records;
      offset += key_len + val_len;
    }
    return offset == bytes->size() && records == job.keys && digest == job.digest;
  }

  const Options options_;
  const KvSize size_;
  Rng rng_;
  Kernel kernel_;
  Process* server_ = nullptr;
  std::optional<KvStore> store_;
  std::vector<std::string> keys_;
  std::vector<uint32_t> version_;
  std::vector<uint64_t> record_hash_;
  uint64_t digest_ = 0;  // Sum of record hashes: order-free, kept up to date per Set.
  uint64_t changed_ = 0;

  // Where the server stands with its snapshot child: none, running, or exited and
  // waiting to be reaped. Only the server moves it out of kJobDone.
  std::atomic<int> job_state_{kJobIdle};
  std::optional<Mailbox> snapshots_;  // One per run of phases.
  std::thread snapshotter_;
  std::mutex snap_mutex_;
  Phase snap_phase_;                   // Guarded by snap_mutex_.
  std::vector<std::byte> dump_bytes_;  // The snapshot thread's read buffer.

  // The open-loop schedule: request i is due at schedule_start_ns_ + i / rate.
  uint64_t schedule_start_ns_ = 0;
  uint64_t next_request_ = 0;
  uint64_t phase_end_ns_ = 0;  // Requests due before this belong to the current phase.
};

}  // namespace

std::unique_ptr<Workload> MakeKvSnapshot(const Options& options) {
  return std::make_unique<KvSnapshot>(options);
}

}  // namespace odf::perfbench
