// Tests for command-line parsing and the Table I partition-size defaults.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lulesh/options.hpp"

namespace {

using lulesh::cli_options;
using lulesh::parse_cli;
using lulesh::partition_sizes;

cli_options parse(std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, DefaultsMatchReference) {
    const auto cli = parse({});
    EXPECT_EQ(cli.problem.size, 30);
    EXPECT_EQ(cli.problem.num_regions, 11);
    EXPECT_EQ(cli.problem.balance, 1);
    EXPECT_EQ(cli.problem.cost, 1);
    EXPECT_EQ(cli.driver, "taskgraph");
    EXPECT_EQ(cli.threads, 0u);
    EXPECT_FALSE(cli.quiet);
    EXPECT_FALSE(cli.partitions.has_value());
}

TEST(Cli, ParsesReferenceStyleFlags) {
    const auto cli = parse({"-s", "90", "-r", "16", "-i", "770", "-q"});
    EXPECT_EQ(cli.problem.size, 90);
    EXPECT_EQ(cli.problem.num_regions, 16);
    EXPECT_EQ(cli.problem.max_cycles, 770);
    EXPECT_TRUE(cli.quiet);
}

TEST(Cli, ParsesDoubleDashVariants) {
    const auto cli = parse({"--s", "45", "--r", "21", "--q"});
    EXPECT_EQ(cli.problem.size, 45);
    EXPECT_EQ(cli.problem.num_regions, 21);
    EXPECT_TRUE(cli.quiet);
}

TEST(Cli, ParsesDriverAndThreads) {
    const auto cli = parse({"-d", "parallel_for", "-t", "24"});
    EXPECT_EQ(cli.driver, "parallel_for");
    EXPECT_EQ(cli.threads, 24u);
}

TEST(Cli, ParsesPartitionPair) {
    const auto cli = parse({"-p", "4096", "2048"});
    ASSERT_TRUE(cli.partitions.has_value());
    EXPECT_EQ(cli.partitions->nodal, 4096);
    EXPECT_EQ(cli.partitions->elems, 2048);
}

TEST(Cli, ParsesBalanceAndCost) {
    const auto cli = parse({"-b", "2", "-c", "3"});
    EXPECT_EQ(cli.problem.balance, 2);
    EXPECT_EQ(cli.problem.cost, 3);
}

TEST(Cli, HelpFlagSetsShowHelp) {
    EXPECT_TRUE(parse({"-h"}).show_help);
    EXPECT_TRUE(parse({"--help"}).show_help);
}

TEST(Cli, RejectsUnknownFlag) {
    EXPECT_THROW(parse({"--bogus"}), std::invalid_argument);
}

TEST(Cli, RejectsMissingValue) {
    EXPECT_THROW(parse({"-s"}), std::invalid_argument);
    EXPECT_THROW(parse({"-p", "1024"}), std::invalid_argument);
}

TEST(Cli, RejectsNonNumericValue) {
    EXPECT_THROW(parse({"-s", "abc"}), std::invalid_argument);
}

TEST(Cli, RejectsInvalidDriver) {
    EXPECT_THROW(parse({"-d", "cuda"}), std::invalid_argument);
}

TEST(Cli, RejectsOutOfRangeValues) {
    EXPECT_THROW(parse({"-s", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"-r", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"-i", "0"}), std::invalid_argument);
}

TEST(Cli, CheckpointEveryAcceptsZeroAndRejectsNegatives) {
    // k = 0 is the documented entry-snapshot-only resilient mode; anything
    // negative is meaningless and must be rejected at parse time.
    EXPECT_EQ(parse({"--checkpoint-every", "0"}).checkpoint_every, 0);
    EXPECT_EQ(parse({"--checkpoint-every", "7"}).checkpoint_every, 7);
    EXPECT_THROW(parse({"--checkpoint-every", "-1"}), std::invalid_argument);
    EXPECT_THROW(parse({"--checkpoint-every", "-100"}), std::invalid_argument);
}

TEST(Cli, UsageDocumentsEntrySnapshotOnlyMode) {
    const std::string text = lulesh::usage_text("prog");
    EXPECT_NE(text.find("--checkpoint-every"), std::string::npos);
    EXPECT_NE(text.find("entry-snapshot-only"), std::string::npos);
}

TEST(Cli, RejectsNonPositivePartitions) {
    EXPECT_THROW(parse({"-p", "0", "64"}), std::invalid_argument);
    EXPECT_THROW(parse({"-p", "64", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"-p", "-2048", "2048"}), std::invalid_argument);
}

// ---------------- --audit-graph and its environment twin ----------------

cli_options parse_env(std::initializer_list<const char*> args,
                      lulesh::env_lookup env) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return parse_cli(static_cast<int>(argv.size()), argv.data(), env);
}

const char* no_env(const char*) { return nullptr; }

TEST(CliAudit, FlagEnablesAuditOnTaskGraphDrivers) {
    EXPECT_TRUE(parse_env({"--audit-graph"}, no_env).audit_graph);
    EXPECT_TRUE(
        parse_env({"--audit-graph", "-d", "foreach"}, no_env).audit_graph);
    EXPECT_FALSE(parse_env({}, no_env).audit_graph);
}

TEST(CliAudit, FlagWithGraphlessDriverIsRejected) {
    // serial and parallel_for never spawn the task graph the audit models —
    // silently auditing a graph that will not run would be a false proof.
    EXPECT_THROW(parse_env({"--audit-graph", "-d", "serial"}, no_env),
                 std::invalid_argument);
    EXPECT_THROW(parse_env({"-d", "parallel_for", "--audit-graph"}, no_env),
                 std::invalid_argument);
}

TEST(CliAudit, EnvFlagEnablesAudit) {
    const auto cli = parse_env({}, [](const char* name) -> const char* {
        return std::string(name) == "LULESH_AUDIT_GRAPH" ? "1" : nullptr;
    });
    EXPECT_TRUE(cli.audit_graph);
}

TEST(CliAudit, UnsetEmptyAndZeroEnvLeaveAuditOff) {
    EXPECT_FALSE(parse_env({}, no_env).audit_graph);
    EXPECT_FALSE(parse_env({}, [](const char*) -> const char* {
                     return "";
                 }).audit_graph);
    EXPECT_FALSE(parse_env({}, [](const char*) -> const char* {
                     return "0";
                 }).audit_graph);
}

TEST(CliAudit, MalformedEnvValuesAreRejected) {
    for (const char* bad : {"yes", "2", "true", " 1", "on"}) {
        static const char* value;
        value = bad;
        EXPECT_THROW(parse_env({}, [](const char*) -> const char* {
                         return value;
                     }),
                     std::invalid_argument)
            << "LULESH_AUDIT_GRAPH=" << bad;
    }
}

// ---------------- --graph-mode and its environment twin ----------------

TEST(CliGraphMode, DefaultsToEmptyMeaningReplay) {
    EXPECT_EQ(parse_env({}, no_env).graph_mode, "");
}

TEST(CliGraphMode, FlagSelectsMode) {
    EXPECT_EQ(parse_env({"--graph-mode", "replay"}, no_env).graph_mode,
              "replay");
    EXPECT_EQ(parse_env({"--graph-mode", "build"}, no_env).graph_mode,
              "build");
    EXPECT_EQ(parse_env({"--graph-mode=build"}, no_env).graph_mode, "build");
}

TEST(CliGraphMode, UnknownModeIsRejected) {
    EXPECT_THROW(parse_env({"--graph-mode", "compiled"}, no_env),
                 std::invalid_argument);
    EXPECT_THROW(parse_env({"--graph-mode", ""}, no_env),
                 std::invalid_argument);
    EXPECT_THROW(parse_env({"--graph-mode"}, no_env), std::invalid_argument);
}

TEST(CliGraphMode, RejectedWithNonTaskgraphDrivers) {
    // The mode selects how the taskgraph driver realizes its iteration
    // graph; every other driver has no such graph.
    for (const char* drv : {"serial", "parallel_for", "foreach"}) {
        static const char* d;
        d = drv;
        EXPECT_THROW(parse_env({"--graph-mode", "build", "-d", d}, no_env),
                     std::invalid_argument)
            << drv;
    }
    EXPECT_EQ(
        parse_env({"--graph-mode", "build", "-d", "taskgraph"}, no_env)
            .graph_mode,
        "build");
}

TEST(CliGraphMode, EnvTwinAppliesAndFlagWins) {
    const auto env = [](const char* name) -> const char* {
        return std::string(name) == "LULESH_GRAPH_MODE" ? "build" : nullptr;
    };
    EXPECT_EQ(parse_env({}, env).graph_mode, "build");
    EXPECT_EQ(parse_env({"--graph-mode", "replay"}, env).graph_mode,
              "replay");
}

TEST(CliGraphMode, MalformedEnvValueIsRejected) {
    const auto env = [](const char* name) -> const char* {
        return std::string(name) == "LULESH_GRAPH_MODE" ? "fast" : nullptr;
    };
    EXPECT_THROW(parse_env({}, env), std::invalid_argument);
}

TEST(CliGraphMode, UsageDocumentsTheFlag) {
    const std::string text = lulesh::usage_text("prog");
    EXPECT_NE(text.find("--graph-mode"), std::string::npos);
    EXPECT_NE(text.find("LULESH_GRAPH_MODE"), std::string::npos);
}

TEST(CliAudit, EnvFlagHonorsTheDriverValidation) {
    EXPECT_THROW(parse_env({"-d", "serial"},
                           [](const char*) -> const char* { return "1"; }),
                 std::invalid_argument);
    // An explicit 0 is not a request, so any driver is fine.  (Scoped to
    // the audit variable: for the path-valued twins "0" is a filename.)
    EXPECT_NO_THROW(
        parse_env({"-d", "serial"}, [](const char* name) -> const char* {
            return std::string(name) == "LULESH_AUDIT_GRAPH" ? "0" : nullptr;
        }));
}

TEST(CliAudit, UsageTextDocumentsBothSpellings) {
    const auto text = lulesh::usage_text("prog");
    EXPECT_NE(text.find("--audit-graph"), std::string::npos);
    EXPECT_NE(text.find("LULESH_AUDIT_GRAPH"), std::string::npos);
}

// ---------------- --trace / --utilization-report and env twins ----------

TEST(CliTrace, FlagsCarryPathsInBothSpellings) {
    auto cli = parse_env({"--trace", "a.json", "--utilization-report",
                          "u.txt"},
                         no_env);
    EXPECT_EQ(cli.trace_file, "a.json");
    EXPECT_EQ(cli.utilization_report_file, "u.txt");
    cli = parse_env({"--trace=b.json", "--utilization-report=v.json"},
                    no_env);
    EXPECT_EQ(cli.trace_file, "b.json");
    EXPECT_EQ(cli.utilization_report_file, "v.json");
    EXPECT_TRUE(parse_env({}, no_env).trace_file.empty());
}

TEST(CliTrace, EmptyPathsAreRejected) {
    EXPECT_THROW(parse_env({"--trace="}, no_env), std::invalid_argument);
    EXPECT_THROW(parse_env({"--utilization-report="}, no_env),
                 std::invalid_argument);
    EXPECT_THROW(parse_env({"--trace"}, no_env), std::invalid_argument);
}

TEST(CliTrace, GraphlessDriversAreRejected) {
    // serial and parallel_for never spawn scheduler tasks, so a trace of
    // them would be an empty lie — same policy as --audit-graph.
    EXPECT_THROW(parse_env({"--trace=t.json", "-d", "serial"}, no_env),
                 std::invalid_argument);
    EXPECT_THROW(parse_env({"-d", "parallel_for",
                            "--utilization-report=u.txt"},
                           no_env),
                 std::invalid_argument);
    EXPECT_NO_THROW(parse_env({"--trace=t.json", "-d", "foreach"}, no_env));
}

TEST(CliTrace, EnvTwinsFillOnlyUnsetFlags) {
    const auto env = [](const char* name) -> const char* {
        if (std::string(name) == "LULESH_TRACE") return "env.json";
        if (std::string(name) == "LULESH_UTILIZATION_REPORT") {
            return "env.txt";
        }
        return nullptr;
    };
    auto cli = parse_env({}, env);
    EXPECT_EQ(cli.trace_file, "env.json");
    EXPECT_EQ(cli.utilization_report_file, "env.txt");
    // The flag wins over the twin.
    cli = parse_env({"--trace=cli.json"}, env);
    EXPECT_EQ(cli.trace_file, "cli.json");
    EXPECT_EQ(cli.utilization_report_file, "env.txt");
    // Empty env values are not requests.
    EXPECT_TRUE(parse_env({}, [](const char*) -> const char* {
                    return "";
                }).trace_file.empty());
}

TEST(CliTrace, EnvTwinsHonorTheDriverValidation) {
    EXPECT_THROW(
        parse_env({"-d", "serial"},
                  [](const char* name) -> const char* {
                      return std::string(name) == "LULESH_TRACE" ? "t.json"
                                                                 : nullptr;
                  }),
        std::invalid_argument);
}

TEST(CliTrace, UsageTextDocumentsAllSpellings) {
    const auto text = lulesh::usage_text("prog");
    EXPECT_NE(text.find("--trace"), std::string::npos);
    EXPECT_NE(text.find("--utilization-report"), std::string::npos);
    EXPECT_NE(text.find("LULESH_TRACE"), std::string::npos);
    EXPECT_NE(text.find("LULESH_UTILIZATION_REPORT"), std::string::npos);
}

// ------------- --halo-timeout / --max-recoveries (fail-soft dist) -------------

TEST(CliHaloTimeout, ParsesBothSpellingsAndDefaultsToZero) {
    EXPECT_EQ(parse_env({}, no_env).halo_timeout_ms, 0);
    EXPECT_EQ(parse_env({"--halo-timeout", "250"}, no_env).halo_timeout_ms,
              250);
    EXPECT_EQ(parse_env({"--halo-timeout=1500"}, no_env).halo_timeout_ms,
              1500);
}

TEST(CliHaloTimeout, RejectsMalformedValues) {
    EXPECT_THROW(parse_env({"--halo-timeout"}, no_env),
                 std::invalid_argument);  // missing value
    EXPECT_THROW(parse_env({"--halo-timeout", "-1"}, no_env),
                 std::invalid_argument);
    EXPECT_THROW(parse_env({"--halo-timeout", "soon"}, no_env),
                 std::invalid_argument);
    EXPECT_THROW(parse_env({"--halo-timeout=-250"}, no_env),
                 std::invalid_argument);
}

TEST(CliHaloTimeout, EnvTwinParsesAndFlagWins) {
    const auto env = [](const char* name) -> const char* {
        return std::string(name) == "LULESH_HALO_TIMEOUT" ? "400" : nullptr;
    };
    EXPECT_EQ(parse_env({}, env).halo_timeout_ms, 400);
    EXPECT_EQ(parse_env({"--halo-timeout", "100"}, env).halo_timeout_ms, 100);
    // The flag wins even at its default value 0 (explicit disable).
    EXPECT_EQ(parse_env({"--halo-timeout", "0"}, env).halo_timeout_ms, 0);
    // Empty env values are not requests.
    EXPECT_EQ(parse_env({}, [](const char*) -> const char* {
                  return "";
              }).halo_timeout_ms,
              0);
}

TEST(CliHaloTimeout, MalformedEnvTwinIsRejected) {
    EXPECT_THROW(parse_env({},
                           [](const char* name) -> const char* {
                               return std::string(name) ==
                                              "LULESH_HALO_TIMEOUT"
                                          ? "-5"
                                          : nullptr;
                           }),
                 std::invalid_argument);
    EXPECT_THROW(parse_env({},
                           [](const char* name) -> const char* {
                               return std::string(name) ==
                                              "LULESH_HALO_TIMEOUT"
                                          ? "later"
                                          : nullptr;
                           }),
                 std::invalid_argument);
}

TEST(CliHaloTimeout, RejectedWithDriversThatNeverExchangeHalos) {
    // serial and parallel_for never perform the distributed halo exchange
    // the deadline guards — accepting the flag would silently do nothing.
    EXPECT_THROW(parse_env({"--halo-timeout", "250", "-d", "serial"}, no_env),
                 std::invalid_argument);
    EXPECT_THROW(
        parse_env({"-d", "parallel_for", "--halo-timeout=250"}, no_env),
        std::invalid_argument);
    EXPECT_THROW(parse_env({"-d", "serial"},
                           [](const char* name) -> const char* {
                               return std::string(name) ==
                                              "LULESH_HALO_TIMEOUT"
                                          ? "250"
                                          : nullptr;
                           }),
                 std::invalid_argument);
    // Zero (disabled) stays compatible with every driver.
    EXPECT_EQ(parse_env({"--halo-timeout", "0", "-d", "serial"}, no_env)
                  .halo_timeout_ms,
              0);
    EXPECT_EQ(
        parse_env({"--halo-timeout", "250", "-d", "foreach"}, no_env)
            .halo_timeout_ms,
        250);
}

TEST(CliMaxRecoveries, ParsesAndRejectsNegative) {
    EXPECT_EQ(parse_env({}, no_env).max_recoveries, 3);
    EXPECT_EQ(parse_env({"--max-recoveries", "0"}, no_env).max_recoveries, 0);
    EXPECT_EQ(parse_env({"--max-recoveries", "7"}, no_env).max_recoveries, 7);
    EXPECT_THROW(parse_env({"--max-recoveries", "-1"}, no_env),
                 std::invalid_argument);
    EXPECT_THROW(parse_env({"--max-recoveries"}, no_env),
                 std::invalid_argument);
}

TEST(CliHaloTimeout, UsageTextDocumentsAllSpellings) {
    const auto text = lulesh::usage_text("prog");
    EXPECT_NE(text.find("--halo-timeout"), std::string::npos);
    EXPECT_NE(text.find("LULESH_HALO_TIMEOUT"), std::string::npos);
    EXPECT_NE(text.find("--max-recoveries"), std::string::npos);
}

TEST(Cli, UsageTextMentionsAllFlags) {
    const auto text = lulesh::usage_text("prog");
    for (const char* flag : {"-s", "-r", "-i", "-b", "-c", "-d", "-t", "-p", "-q"}) {
        EXPECT_NE(text.find(flag), std::string::npos) << flag;
    }
}

#ifdef LULESH_AMT_HAVE_OPENMP
TEST(CliOpenMP, DriverParsesWithThreads) {
    const auto cli = parse({"-d", "openmp", "-t", "3"});
    EXPECT_EQ(cli.driver, "openmp");
    EXPECT_EQ(cli.threads, 3u);
}

TEST(CliOpenMP, TaskOnlyFlagsAreRejected) {
    // Like serial and parallel_for, real OpenMP runs plain loops: there is
    // no task graph to audit, trace, meter, compile or exchange halos in.
    const std::vector<std::vector<const char*>> task_only = {
        {"--audit-graph"},          {"--trace=t.json"},
        {"--utilization-report=u.txt"}, {"--metrics=m.json"},
        {"--halo-timeout", "20"},   {"--graph-mode", "replay"},
        {"--critical-path-report"}};
    for (const auto& flag : task_only) {
        std::vector<const char*> argv{"prog", "-d", "openmp"};
        argv.insert(argv.end(), flag.begin(), flag.end());
        EXPECT_THROW(
            parse_cli(static_cast<int>(argv.size()), argv.data(), no_env),
            std::invalid_argument)
            << flag.front();
    }
}
#else
TEST(CliOpenMP, DriverIsRejectedWhenOpenMPWasNotBuilt) {
    try {
        (void)parse({"-d", "openmp"});
        FAIL() << "-d openmp must be rejected without the OpenMP driver";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("OpenMP was not built"),
                  std::string::npos)
            << e.what();
    }
}
#endif

TEST(CliOpenMP, UsageTextListsTheDriver) {
    EXPECT_NE(lulesh::usage_text("prog").find("openmp"), std::string::npos);
}

TEST(PartitionSizes, TunedValuesMatchPaperTableI) {
    struct row {
        lulesh::index_t size, nodal, elems;
    };
    // Table I of the paper.
    const row table[] = {{45, 2048, 2048},  {60, 4096, 2048},
                         {75, 8192, 4096},  {90, 8192, 4096},
                         {120, 8192, 2048}, {150, 8192, 2048}};
    for (const auto& r : table) {
        const auto p = partition_sizes::tuned_for(r.size);
        EXPECT_EQ(p.nodal, r.nodal) << "size " << r.size;
        EXPECT_EQ(p.elems, r.elems) << "size " << r.size;
    }
}

TEST(PartitionSizes, SmallProblemsGetSmallPartitions) {
    const auto p = partition_sizes::tuned_for(10);
    EXPECT_LE(p.nodal, 512);
    EXPECT_LE(p.elems, 512);
    EXPECT_GE(p.nodal, 1);
}

}  // namespace
