#include "src/fs/mem_fs.h"

#include <algorithm>
#include <cstring>

#include "src/debug/lockdep.h"
#include "src/debug/mutation.h"
#include "src/util/log.h"

namespace odf {

namespace {

// Page-cache lock classes. MemFile::mutex_ is held while calling into the frame allocator
// to FREE (Truncate, GetPage's lost-race DecRef), so the recorded order is file -> pool.
// Allocation happens outside mutex_ (it can block in direct reclaim — see mm_gate.h).
debug::LockClass g_mem_file_lock_class("MemFile::mutex_");
debug::LockClass g_mem_fs_lock_class("MemFilesystem::mutex_");

}  // namespace

MemFile::~MemFile() {
  debug::MutationScope mutation;  // Releases every cached frame.
  debug::MutexGuard guard(mutex_, g_mem_file_lock_class);
  for (auto& [index, frame] : cache_) {
    allocator_->DecRef(frame);
  }
  cache_.clear();
}

uint64_t MemFile::size() const {
  debug::MutexGuard guard(mutex_, g_mem_file_lock_class);
  return size_;
}

FrameId MemFile::GetPage(uint64_t index) {
  debug::MutationScope mutation;  // May allocate a page-cache frame.
  {
    debug::MutexGuard guard(mutex_, g_mem_file_lock_class);
    auto it = cache_.find(index);
    if (it != cache_.end()) {
      return it->second;
    }
  }
  // Allocate OUTSIDE mutex_: a NOFAIL allocation under pressure blocks in direct reclaim,
  // and no lock may be held at a quota-wait point (src/pt/mm_gate.h). Double-checked
  // insert: a racing caller may have populated the slot meanwhile — keep theirs, free ours.
  // Faulting a page into the cache does not change the file size (pages past EOF can be
  // cached for mappings, as in real page caches).
  FrameId frame = allocator_->Allocate(kPageFlagFile | kPageFlagZeroFill);
  debug::MutexGuard guard(mutex_, g_mem_file_lock_class);
  auto [it, inserted] = cache_.emplace(index, frame);
  if (!inserted) {
    allocator_->DecRef(frame);
  }
  return it->second;
}

FrameId MemFile::PeekPage(uint64_t index) const {
  debug::MutexGuard guard(mutex_, g_mem_file_lock_class);
  auto it = cache_.find(index);
  return it == cache_.end() ? kInvalidFrame : it->second;
}

void MemFile::Write(uint64_t offset, std::span<const std::byte> data) {
  debug::MutationScope mutation;  // Allocates and fills page-cache frames.
  size_t written = 0;
  while (written < data.size()) {
    uint64_t pos = offset + written;
    uint64_t index = pos / kPageSize;
    uint64_t in_page = pos % kPageSize;
    size_t chunk = std::min<size_t>(data.size() - written, kPageSize - in_page);
    FrameId frame = GetPage(index);
    std::byte* dest = allocator_->MaterializeData(frame);
    std::memcpy(dest + in_page, data.data() + written, chunk);
    written += chunk;
  }
  debug::MutexGuard guard(mutex_, g_mem_file_lock_class);
  size_ = std::max(size_, offset + data.size());
}

void MemFile::Read(uint64_t offset, std::span<std::byte> out) const {
  size_t done = 0;
  while (done < out.size()) {
    uint64_t pos = offset + done;
    uint64_t index = pos / kPageSize;
    uint64_t in_page = pos % kPageSize;
    size_t chunk = std::min<size_t>(out.size() - done, kPageSize - in_page);
    FrameId frame = PeekPage(index);
    if (frame == kInvalidFrame) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      const std::byte* src = allocator_->PeekData(frame);
      if (src == nullptr) {
        std::memset(out.data() + done, 0, chunk);
      } else {
        std::memcpy(out.data() + done, src + in_page, chunk);
      }
    }
    done += chunk;
  }
}

void MemFile::Truncate(uint64_t new_size) {
  debug::MutationScope mutation;  // Frees the truncated tail's frames.
  debug::MutexGuard guard(mutex_, g_mem_file_lock_class);
  uint64_t keep_pages = (new_size + kPageSize - 1) / kPageSize;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->first >= keep_pages) {
      allocator_->DecRef(it->second);
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
  size_ = new_size;
}

size_t MemFile::ReplaceFrame(FrameId old_frame, FrameId new_frame) {
  debug::MutexGuard guard(mutex_, g_mem_file_lock_class);
  size_t replaced = 0;
  for (auto& [index, frame] : cache_) {
    if (frame == old_frame) {
      frame = new_frame;
      ++replaced;
    }
  }
  return replaced;
}

uint64_t MemFile::CachedPages() const {
  debug::MutexGuard guard(mutex_, g_mem_file_lock_class);
  return cache_.size();
}

void MemFile::ForEachCachedPage(const std::function<void(uint64_t, FrameId)>& fn) const {
  debug::MutexGuard guard(mutex_, g_mem_file_lock_class);
  for (const auto& [index, frame] : cache_) {
    fn(index, frame);
  }
}

std::shared_ptr<MemFile> MemFilesystem::Open(const std::string& path) {
  debug::MutexGuard guard(mutex_, g_mem_fs_lock_class);
  auto it = files_.find(path);
  if (it != files_.end()) {
    return it->second;
  }
  auto file = std::make_shared<MemFile>(path, allocator_);
  files_.emplace(path, file);
  return file;
}

std::shared_ptr<MemFile> MemFilesystem::Lookup(const std::string& path) const {
  debug::MutexGuard guard(mutex_, g_mem_fs_lock_class);
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : it->second;
}

bool MemFilesystem::Remove(const std::string& path) {
  debug::MutexGuard guard(mutex_, g_mem_fs_lock_class);
  return files_.erase(path) != 0;
}

size_t MemFilesystem::FileCount() const {
  debug::MutexGuard guard(mutex_, g_mem_fs_lock_class);
  return files_.size();
}

void MemFilesystem::ForEachFile(
    const std::function<void(const std::shared_ptr<MemFile>&)>& fn) const {
  debug::MutexGuard guard(mutex_, g_mem_fs_lock_class);
  for (const auto& [path, file] : files_) {
    fn(file);
  }
}

}  // namespace odf
