// File-backed mappings (§3.7): page-cache sharing, MAP_SHARED write-through, MAP_PRIVATE
// COW, and interaction with both fork flavours.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace odf {
namespace {

class FileMappingTest : public ::testing::Test {
 protected:
  FileMappingTest() : p_(kernel_.CreateProcess()) {}

  std::shared_ptr<MemFile> MakeFile(const std::string& name, uint64_t length, uint64_t seed) {
    auto file = kernel_.fs().Open(name);
    std::vector<std::byte> data(length);
    for (uint64_t i = 0; i < length; ++i) {
      data[i] = static_cast<std::byte>((seed + i) * 31);
    }
    file->Write(0, data);
    return file;
  }

  Kernel kernel_;
  Process& p_;
};

TEST(MemFsTest, WriteReadRoundTrip) {
  FrameAllocator allocator;
  MemFilesystem fs(&allocator);
  auto file = fs.Open("/data");
  std::vector<std::byte> data(10000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 7);
  }
  file->Write(100, data);
  EXPECT_EQ(file->size(), 10100u);
  std::vector<std::byte> out(10000);
  file->Read(100, out);
  EXPECT_EQ(out, data);
}

TEST(MemFsTest, ReadOfHoleReturnsZeros) {
  FrameAllocator allocator;
  MemFilesystem fs(&allocator);
  auto file = fs.Open("/sparse");
  std::byte one{1};
  file->Write(5 * kPageSize, std::span(&one, 1));
  std::vector<std::byte> out(kPageSize, std::byte{0xff});
  file->Read(0, out);
  for (std::byte b : out) {
    ASSERT_EQ(b, std::byte{0});
  }
}

TEST(MemFsTest, TruncateReleasesPages) {
  FrameAllocator allocator;
  {
    MemFilesystem fs(&allocator);
    auto file = fs.Open("/t");
    std::vector<std::byte> data(10 * kPageSize, std::byte{1});
    file->Write(0, data);
    EXPECT_EQ(file->CachedPages(), 10u);
    file->Truncate(3 * kPageSize);
    EXPECT_EQ(file->CachedPages(), 3u);
    EXPECT_EQ(file->size(), 3 * kPageSize);
    fs.Remove("/t");
    file.reset();
  }
  EXPECT_TRUE(allocator.AllFree());
}

TEST(MemFsTest, OpenReturnsSameFile) {
  FrameAllocator allocator;
  MemFilesystem fs(&allocator);
  auto a = fs.Open("/x");
  auto b = fs.Open("/x");
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(fs.FileCount(), 1u);
}

TEST_F(FileMappingTest, SharedMappingReadsFileContent) {
  auto file = MakeFile("/f", 3 * kPageSize, 1);
  Vaddr va = p_.address_space().MapFile(file, 0, 3 * kPageSize, kProtRead | kProtWrite, true);
  std::vector<std::byte> out(3 * kPageSize);
  ASSERT_TRUE(p_.ReadMemory(va, out));
  for (uint64_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<std::byte>((1 + i) * 31));
  }
}

TEST_F(FileMappingTest, SharedMappingWritesReachTheFile) {
  auto file = MakeFile("/f", 2 * kPageSize, 2);
  Vaddr va = p_.address_space().MapFile(file, 0, 2 * kPageSize, kProtRead | kProtWrite, true);
  WriteByte(p_, va + 10, std::byte{0x42});
  std::byte from_file{0};
  file->Read(10, std::span(&from_file, 1));
  EXPECT_EQ(from_file, std::byte{0x42}) << "MAP_SHARED writes must hit the page cache";
}

TEST_F(FileMappingTest, PrivateMappingWritesDoNotReachTheFile) {
  auto file = MakeFile("/f", 2 * kPageSize, 3);
  Vaddr va = p_.address_space().MapFile(file, 0, 2 * kPageSize, kProtRead | kProtWrite, false);
  WriteByte(p_, va + 10, std::byte{0x42});
  EXPECT_EQ(ReadByte(p_, va + 10), std::byte{0x42});
  std::byte from_file{0};
  file->Read(10, std::span(&from_file, 1));
  EXPECT_EQ(from_file, static_cast<std::byte>(((3 + 10) * 31) & 0xff))
      << "MAP_PRIVATE writes must COW off the page cache";
}

TEST_F(FileMappingTest, PrivateMappingSeesPreCowFileUpdates) {
  auto file = MakeFile("/f", kPageSize, 4);
  Vaddr va = p_.address_space().MapFile(file, 0, kPageSize, kProtRead, false);
  EXPECT_EQ(ReadByte(p_, va), static_cast<std::byte>(4 * 31));
  // An update through the file is visible because the mapping still points at the cache.
  std::byte nv{0x99};
  file->Write(0, std::span(&nv, 1));
  p_.address_space().locks().FlushAll();
  EXPECT_EQ(ReadByte(p_, va), std::byte{0x99});
}

TEST_F(FileMappingTest, FileOffsetMapping) {
  auto file = MakeFile("/f", 10 * kPageSize, 5);
  Vaddr va =
      p_.address_space().MapFile(file, 4 * kPageSize, 2 * kPageSize, kProtRead, false);
  EXPECT_EQ(ReadByte(p_, va), static_cast<std::byte>(((5 + 4 * kPageSize) * 31) & 0xff));
}

TEST_F(FileMappingTest, TwoProcessesShareOneCachePage) {
  auto file = MakeFile("/f", kPageSize, 6);
  Vaddr va = p_.address_space().MapFile(file, 0, kPageSize, kProtRead | kProtWrite, true);
  ASSERT_EQ(ReadByte(p_, va), static_cast<std::byte>(6 * 31));

  Process& other = kernel_.CreateProcess();
  Vaddr vb = other.address_space().MapFile(file, 0, kPageSize, kProtRead | kProtWrite, true);
  WriteByte(other, vb + 5, std::byte{0x7e});
  EXPECT_EQ(ReadByte(p_, va + 5), std::byte{0x7e})
      << "shared mappings in different processes must alias the same cache page";
}

// Two processes, each on its own thread and so under its own address space's locks,
// first-write disjoint halves of the same never-written MAP_SHARED file pages at the same
// time. A first write only marks the frame written (its bytes are already zero), so
// neither writer can wipe the other's half.
TEST_F(FileMappingTest, ConcurrentFirstWritesToOneSharedPageBothSurvive) {
  constexpr uint64_t kPages = 64;
  constexpr uint64_t kHalf = kPageSize / 2;
  auto file = kernel_.fs().Open("/race");
  Process& other = kernel_.CreateProcess();
  Vaddr va = p_.address_space().MapFile(file, 0, kPages * kPageSize,
                                        kProtRead | kProtWrite, true);
  Vaddr vb = other.address_space().MapFile(file, 0, kPages * kPageSize,
                                           kProtRead | kProtWrite, true);
  for (uint64_t page = 0; page < kPages; ++page) {
    // Read faults map the cache page in both processes without writing it.
    ASSERT_EQ(ReadByte(p_, va + page * kPageSize), std::byte{0});
    ASSERT_EQ(ReadByte(other, vb + page * kPageSize), std::byte{0});
    ASSERT_EQ(kernel_.allocator().PeekData(file->PeekPage(page)), nullptr);
  }
  std::atomic<uint64_t> arrived{0};
  auto writer = [&](Process& proc, Vaddr base, uint64_t offset, std::byte value) {
    std::vector<std::byte> half(kHalf, value);
    for (uint64_t page = 0; page < kPages; ++page) {
      arrived.fetch_add(1);
      while (arrived.load() < 2 * (page + 1)) {
      }  // Both writers start each page together.
      ASSERT_TRUE(proc.WriteMemory(base + page * kPageSize + offset, half));
    }
  };
  std::thread first(writer, std::ref(p_), va, 0, std::byte{0x11});
  std::thread second(writer, std::ref(other), vb, kHalf, std::byte{0x22});
  first.join();
  second.join();
  std::vector<std::byte> page_bytes(kPageSize);
  for (uint64_t page = 0; page < kPages; ++page) {
    file->Read(page * kPageSize, page_bytes);
    for (uint64_t i = 0; i < kPageSize; ++i) {
      ASSERT_EQ(page_bytes[i], i < kHalf ? std::byte{0x11} : std::byte{0x22})
          << "page " << page << " byte " << i;
    }
  }
}

class FileForkTest : public FileMappingTest,
                     public ::testing::WithParamInterface<ForkMode> {};

TEST_P(FileForkTest, SharedMappingRemainsSharedAcrossFork) {
  auto file = MakeFile("/f", 2 * kPageSize, 7);
  Vaddr va = p_.address_space().MapFile(file, 0, 2 * kPageSize, kProtRead | kProtWrite, true);
  ASSERT_EQ(ReadByte(p_, va), static_cast<std::byte>(7 * 31));
  Process& child = kernel_.Fork(p_, GetParam());
  WriteByte(child, va, std::byte{0x31});
  EXPECT_EQ(ReadByte(p_, va), std::byte{0x31})
      << "MAP_SHARED must not become COW across " << ForkModeName(GetParam());
  std::byte from_file{0};
  file->Read(0, std::span(&from_file, 1));
  EXPECT_EQ(from_file, std::byte{0x31});
}

TEST_P(FileForkTest, PrivateMappingIsCowAcrossFork) {
  auto file = MakeFile("/f", 2 * kPageSize, 8);
  Vaddr va =
      p_.address_space().MapFile(file, 0, 2 * kPageSize, kProtRead | kProtWrite, false);
  WriteByte(p_, va, std::byte{0x10});  // Parent COWs page 0 pre-fork.
  Process& child = kernel_.Fork(p_, GetParam());
  WriteByte(child, va, std::byte{0x20});
  EXPECT_EQ(ReadByte(p_, va), std::byte{0x10});
  EXPECT_EQ(ReadByte(child, va), std::byte{0x20});
  std::byte from_file{0};
  file->Read(0, std::span(&from_file, 1));
  EXPECT_EQ(from_file, static_cast<std::byte>(8 * 31));
}

TEST_P(FileForkTest, NoLeaksWithFileMappings) {
  auto file = MakeFile("/f", 4 * kPageSize, 9);
  Vaddr shared =
      p_.address_space().MapFile(file, 0, 2 * kPageSize, kProtRead | kProtWrite, true);
  Vaddr priv =
      p_.address_space().MapFile(file, 0, 4 * kPageSize, kProtRead | kProtWrite, false);
  WriteByte(p_, shared, std::byte{1});
  WriteByte(p_, priv, std::byte{2});
  Process& child = kernel_.Fork(p_, GetParam());
  WriteByte(child, priv + kPageSize, std::byte{3});
  kernel_.Exit(child, 0);
  kernel_.Wait(p_);
  kernel_.Exit(p_, 0);
  kernel_.fs().Remove("/f");
  file.reset();
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

INSTANTIATE_TEST_SUITE_P(BothForks, FileForkTest,
                         ::testing::Values(ForkMode::kClassic, ForkMode::kOnDemand),
                         [](const auto& param_info) {
                           return param_info.param == ForkMode::kClassic ? "classic" : "ondemand";
                         });

}  // namespace
}  // namespace odf
