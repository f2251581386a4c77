#include "hwtask/library.hpp"

#include <gtest/gtest.h>

#include "hwtask/fft_core.hpp"

namespace minova::hwtask {
namespace {

TEST(TaskLibrary, PaperSetHasNineTasks) {
  const TaskLibrary lib = TaskLibrary::evaluation_set(2, 2);
  EXPECT_EQ(lib.size(), 9u);
}

TEST(TaskLibrary, FftTasksOnlyFitLargePrrs) {
  const TaskLibrary lib = TaskLibrary::evaluation_set(2, 2);
  for (TaskId id : {TaskLibrary::kFft256, TaskLibrary::kFft8192}) {
    const TaskInfo* info = lib.find(id);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->compatible_prrs, (std::vector<u32>{0, 1}));
  }
}

TEST(TaskLibrary, QamTasksFitAllPrrs) {
  const TaskLibrary lib = TaskLibrary::evaluation_set(2, 2);
  for (TaskId id :
       {TaskLibrary::kQam4, TaskLibrary::kQam16, TaskLibrary::kQam64}) {
    const TaskInfo* info = lib.find(id);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->compatible_prrs, (std::vector<u32>{0, 1, 2, 3}));
  }
}

TEST(TaskLibrary, BitstreamSizesGrowWithFftSize) {
  const TaskLibrary lib = TaskLibrary::evaluation_set(2, 2);
  u32 prev = 0;
  for (TaskId id = TaskLibrary::kFft256; id <= TaskLibrary::kFft8192; ++id) {
    const TaskInfo* info = lib.find(id);
    ASSERT_NE(info, nullptr);
    EXPECT_GT(info->bitstream_bytes, prev);
    prev = info->bitstream_bytes;
  }
}

TEST(TaskLibrary, InstantiateProducesWorkingCore) {
  const TaskLibrary lib = TaskLibrary::evaluation_set(2, 2);
  auto core = lib.instantiate(TaskLibrary::kFft1024);
  ASSERT_NE(core, nullptr);
  EXPECT_EQ(core->name(), "FFT-1024");
  auto* fft = dynamic_cast<FftCore*>(core.get());
  ASSERT_NE(fft, nullptr);
  EXPECT_EQ(fft->points(), 1024u);
}

TEST(TaskLibrary, FindUnknownReturnsNull) {
  const TaskLibrary lib = TaskLibrary::evaluation_set(2, 2);
  EXPECT_EQ(lib.find(999), nullptr);
  EXPECT_EQ(lib.find(kInvalidTask), nullptr);
}

TEST(TaskLibrary, IdsSortedAndStable) {
  const TaskLibrary lib = TaskLibrary::evaluation_set(2, 2);
  const auto ids = lib.ids();
  ASSERT_EQ(ids.size(), 9u);
  EXPECT_EQ(ids.front(), TaskLibrary::kFft256);
  EXPECT_EQ(ids.back(), TaskLibrary::kQam64);
}

TEST(TaskLibraryDeath, DuplicateIdRejected) {
  TaskLibrary lib;
  TaskInfo info{.id = 5,
                .name = "x",
                .bitstream_bytes = 100,
                .compatible_prrs = {0},
                .make_core = [] {
                  return std::unique_ptr<IpCore>(
                      std::make_unique<FftCore>(256));
                }};
  lib.add(info);
  EXPECT_DEATH(lib.add(info), "duplicate task id");
}

}  // namespace
}  // namespace minova::hwtask
