// Integration test for the vbatch_cli driver binary: spawns the real
// executable (path injected by CMake) and checks exit codes and key output
// lines for the main flag combinations.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

#ifndef VBATCH_CLI_PATH
#error "VBATCH_CLI_PATH must be defined by the build"
#endif

struct CliRun {
  int exit_code = -1;
  std::string output;
};

/// `env` is an optional "NAME=value " prefix for the spawned command.
CliRun run_cli(const std::string& args, const std::string& env = {}) {
  CliRun r;
  const std::string cmd = env + std::string(VBATCH_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 512> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) r.output += buf.data();
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

TEST(Cli, DefaultRunSucceeds) {
  const auto r = run_cli("--batch 50 --nmax 64");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("potrf_vbatched"), std::string::npos);
  EXPECT_NE(r.output.find("Gflop/s"), std::string::npos);
}

TEST(Cli, VerifyModeChecksResiduals) {
  const auto r = run_cli("--batch 30 --nmax 48 --verify");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("worst residual"), std::string::npos);
}

TEST(Cli, TuneProfileEnergyFlags) {
  const auto r = run_cli("--batch 40 --nmax 96 --tune --profile --energy");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("autotune:"), std::string::npos);
  EXPECT_NE(r.output.find("kernel profile"), std::string::npos);
  EXPECT_NE(r.output.find("energy to solution"), std::string::npos);
}

TEST(Cli, GaussianSinglePrecisionSeparatedPath) {
  const auto r = run_cli("--batch 60 --nmax 900 --dist gaussian --precision s --path separated");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("path=separated"), std::string::npos);
}

TEST(Cli, BadFlagExitsWithUsage) {
  const auto r = run_cli("--bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, InvalidValueRejected) {
  for (const char* args :
       {"--batch 0", "--batch 12x", "--nmax 3z", "--arena-gb 1.5q", "--seed -1"}) {
    const auto r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << args << "\n" << r.output;
  }
}

TEST(Cli, MalformedArenaKnobIsANamedPoolError) {
  // The pool reads VBATCH_ARENA_GB when it is built; a bad value is a usage
  // error of the pool, not an uncaught exception.
  const auto r = run_cli("--batch 20 --nmax 64 --hetero k40c", "VBATCH_ARENA_GB=abc ");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("VBATCH_ARENA_GB"), std::string::npos) << r.output;
}

}  // namespace
