#include "cpu/registers.hpp"

#include <gtest/gtest.h>

namespace minova::cpu {
namespace {

TEST(RegisterFile, LowRegistersSharedAcrossModes) {
  RegisterFile rf;
  rf.set(Mode::kUsr, 0, 0x11);
  rf.set(Mode::kUsr, 7, 0x77);
  EXPECT_EQ(rf.get(Mode::kSvc, 0), 0x11u);
  EXPECT_EQ(rf.get(Mode::kIrq, 7), 0x77u);
}

TEST(RegisterFile, SpLrBankedPerMode) {
  RegisterFile rf;
  rf.set(Mode::kUsr, 13, 0x1000);
  rf.set(Mode::kSvc, 13, 0x2000);
  rf.set(Mode::kIrq, 13, 0x3000);
  rf.set(Mode::kSvc, 14, 0xAAAA);
  EXPECT_EQ(rf.sp(Mode::kUsr), 0x1000u);
  EXPECT_EQ(rf.sp(Mode::kSvc), 0x2000u);
  EXPECT_EQ(rf.sp(Mode::kIrq), 0x3000u);
  EXPECT_EQ(rf.lr(Mode::kSvc), 0xAAAAu);
  EXPECT_EQ(rf.lr(Mode::kUsr), 0u);
}

TEST(RegisterFile, SysSharesUsrBank) {
  RegisterFile rf;
  rf.set(Mode::kUsr, 13, 0x1234);
  EXPECT_EQ(rf.sp(Mode::kSys), 0x1234u);
}

TEST(RegisterFile, FiqBanksHighRegisters) {
  RegisterFile rf;
  rf.set(Mode::kUsr, 8, 0x88);
  rf.set(Mode::kFiq, 8, 0xF8);
  EXPECT_EQ(rf.get(Mode::kUsr, 8), 0x88u);
  EXPECT_EQ(rf.get(Mode::kFiq, 8), 0xF8u);
  EXPECT_EQ(rf.get(Mode::kSvc, 8), 0x88u);  // svc sees the usr bank
}

TEST(RegisterFile, PcSharedEverywhere) {
  RegisterFile rf;
  rf.set(Mode::kUsr, 15, 0x8000);
  EXPECT_EQ(rf.get(Mode::kFiq, 15), 0x8000u);
  EXPECT_EQ(rf.pc(), 0x8000u);
}

TEST(Psr, EncodeDecodeRoundTrip) {
  Psr p;
  p.mode = Mode::kIrq;
  p.irq_masked = true;
  p.fiq_masked = false;
  p.flags = 0xF000'0000u;
  const Psr back = Psr::decode(p.encode());
  EXPECT_EQ(back.mode, Mode::kIrq);
  EXPECT_TRUE(back.irq_masked);
  EXPECT_FALSE(back.fiq_masked);
  EXPECT_EQ(back.flags, 0xF000'0000u);
}

TEST(Modes, PrivilegeClassification) {
  EXPECT_FALSE(is_privileged(Mode::kUsr));
  EXPECT_TRUE(is_privileged(Mode::kSvc));
  EXPECT_TRUE(is_privileged(Mode::kIrq));
  EXPECT_TRUE(is_privileged(Mode::kFiq));
  EXPECT_TRUE(is_privileged(Mode::kUnd));
  EXPECT_TRUE(is_privileged(Mode::kAbt));
}

TEST(Modes, ExceptionTargetModes) {
  EXPECT_EQ(mode_for_exception(Exception::kSupervisorCall), Mode::kSvc);
  EXPECT_EQ(mode_for_exception(Exception::kIrq), Mode::kIrq);
  EXPECT_EQ(mode_for_exception(Exception::kUndefined), Mode::kUnd);
  EXPECT_EQ(mode_for_exception(Exception::kDataAbort), Mode::kAbt);
  EXPECT_EQ(mode_for_exception(Exception::kPrefetchAbort), Mode::kAbt);
}

}  // namespace
}  // namespace minova::cpu
