// The strict text-input layer (vbatch/util/parse.hpp): the whole-token
// number reader, the round-trip number writer, the splitters, and a seeded
// mutation test of the five library grammars built on them — the service
// trace, the fault spec, the DevicePool list, VBATCH_ADMISSION and the
// tuning profile.
//
// Mutation contract: an input either parses or throws vbatch::Error with
// Status::InvalidArgument (the tuning loader, whose callers re-tune on a bad
// file, returns nullopt with a reason instead). Where a formatter exists, a
// parsed input round-trips format -> parse -> format exactly. Anything else
// — another exception type, a crash, a sanitizer report — fails.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "vbatch/blas/tuning.hpp"
#include "vbatch/fault/fault_plan.hpp"
#include "vbatch/hetero/device_pool.hpp"
#include "vbatch/service/admission.hpp"
#include "vbatch/service/trace.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/parse.hpp"

using namespace vbatch;
using util::format_number;
using util::parse_number;
using util::try_parse_number;

namespace {

/// SplitMix64 with a fixed seed: every run mutates the same inputs.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr std::uint64_t kSeed = 0x5EED2016;
constexpr int kBudget = 4000;  ///< mutated inputs per grammar

/// Tokens on the edges of the number grammar, spliced in by token mutations.
const char* const kEdgeTokens[] = {
    "",     "0",       "-0",     "1",      "-1",   "+1",     "0x10",      "0x1p-3",
    "1e1",  "2.0",     ".5",     "5.",     "1e400", "1e-400", "4.9e-324", "inf",
    "nan",  "-inf",    " 5",     "5 ",     "1,2",  "=",      "12x",       "2147483648",
    "9223372036854775808", "18446744073709551616", "-9223372036854775809", "k40c", "gb"};

/// Bytes spliced in by byte mutations: separators, signs, digits, exponent
/// and hex markers, whitespace, the suffix letters, NUL and a high byte.
constexpr char kBytes[] = {'0', '1', '9', '-', '+', '.', 'e', 'x', ',', ';', ':',  '=',
                           ' ', '\t', '\n', '#', 'g', 'b', 's', 'p', 'a', '\0', '\xff'};

bool is_separator(char c) { return std::strchr(" \t\n,;:=", c) != nullptr; }

/// One to three mutations of `in`: overwrite, insert or delete a byte, or
/// replace the token around a position with a grammar-edge token.
std::string mutate(std::string s, SplitMix64& rng) {
  const std::size_t rounds = 1 + rng.below(3);
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t at = rng.below(s.size() + 1);
    const char byte = kBytes[rng.below(sizeof kBytes)];
    switch (rng.below(4)) {
      case 0:
        if (at < s.size()) s[at] = byte;
        break;
      case 1: s.insert(at, 1, byte); break;
      case 2:
        if (at < s.size()) s.erase(at, 1);
        break;
      default: {
        std::size_t begin = at;
        while (begin > 0 && !is_separator(s[begin - 1])) --begin;
        std::size_t end = at;
        while (end < s.size() && !is_separator(s[end])) ++end;
        s.replace(begin, end - begin, kEdgeTokens[rng.below(std::size(kEdgeTokens))]);
      }
    }
  }
  return s;
}

/// Runs `parse` on `input` under the contract: true when it parsed, false
/// when it threw InvalidArgument; any other outcome is a test failure.
bool parses(const std::string& input, const std::function<void(const std::string&)>& parse) {
  try {
    parse(input);
    return true;
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::InvalidArgument) << "input: " << input;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-vbatch exception '" << e.what() << "' for input: " << input;
  }
  return false;
}

/// Checks every corpus entry (which must parse) and kBudget mutants of it
/// with `check`; `check` returns whether its input parsed.
void fuzz(const std::vector<std::string>& corpus,
          const std::function<bool(const std::string&)>& check) {
  for (const std::string& valid : corpus) ASSERT_TRUE(check(valid)) << valid;
  SplitMix64 rng(kSeed);
  int parsed = 0;
  for (int i = 0; i < kBudget; ++i)
    parsed += check(mutate(corpus[rng.below(corpus.size())], rng)) ? 1 : 0;
  // Both outcomes must occur, or the mutations are not reaching the grammar.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kBudget);
}

}  // namespace

// ---------------------------------------------------------------------------
// The number grammar
// ---------------------------------------------------------------------------

TEST(ParseNumber, WholeTokenGrammar) {
  EXPECT_EQ(try_parse_number<int>("42"), 42);
  EXPECT_EQ(try_parse_number<int>("-7"), -7);
  EXPECT_EQ(try_parse_number<std::uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(try_parse_number<double>("2.5"), 2.5);
  EXPECT_EQ(try_parse_number<double>("1e-3"), 1e-3);
  EXPECT_EQ(try_parse_number<double>("-0.5"), -0.5);
  for (const char* bad : {"", " 1", "1 ", "+1", "0x10", "1e1", "2.0", "12x", "1,2", "2147483648"})
    EXPECT_FALSE(try_parse_number<int>(bad)) << "'" << bad << "'";
  for (const char* bad : {"-1", "-0", "18446744073709551616"})
    EXPECT_FALSE(try_parse_number<std::uint64_t>(bad)) << "'" << bad << "'";
  for (const char* bad : {"", "+1", "0x1p-3", "inf", "nan", "1e400", "1.5q", " 5", "5 "})
    EXPECT_FALSE(try_parse_number<double>(bad)) << "'" << bad << "'";
}

TEST(ParseNumber, ErrorsNameTheFieldAndToken) {
  const auto message = [](const std::function<void()>& f) -> std::string {
    try {
      f();
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::InvalidArgument);
      return e.what();
    }
    return "(no throw)";
  };
  EXPECT_NE(message([] { (void)parse_number<int>("3z", "nmax"); })
                .find("nmax must be an integer (got '3z')"),
            std::string::npos);
  EXPECT_NE(message([] { (void)parse_number<std::uint64_t>("-1", "seed"); })
                .find("seed must be a non-negative integer (got '-1')"),
            std::string::npos);
  EXPECT_NE(message([] { (void)parse_number<double>("inf", "rate"); })
                .find("rate must be a finite number (got 'inf')"),
            std::string::npos);
}

TEST(ParseNumber, FormatRoundTripsEveryFiniteDouble) {
  for (const double v : {0.0, -0.0, 0.1, 1.0 / 3.0, 0.123456789, 5e-324, DBL_MAX, -DBL_MIN, 1e22})
    EXPECT_EQ(bits(parse_number<double>(format_number(v), "v")), bits(v)) << format_number(v);
  SplitMix64 rng(kSeed);
  for (int i = 0; i < 2000; ++i) {
    const double v = std::bit_cast<double>(rng.next());
    if (!std::isfinite(v)) continue;
    EXPECT_EQ(bits(parse_number<double>(format_number(v), "v")), bits(v)) << format_number(v);
  }
}

TEST(ParseSplit, KeepsEmptyFieldsForTheCaller) {
  using Fields = std::vector<std::string_view>;
  EXPECT_EQ(util::split("a,,b", ','), (Fields{"a", "", "b"}));
  EXPECT_EQ(util::split("", ','), (Fields{""}));
  EXPECT_EQ(util::split("a,", ','), (Fields{"a", ""}));
  const auto kv = util::split_kv("rate=0.2=x");
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->first, "rate");
  EXPECT_EQ(kv->second, "0.2=x");
  EXPECT_EQ(util::split_kv("key=")->second, "");
  EXPECT_FALSE(util::split_kv("=5").has_value());
  EXPECT_FALSE(util::split_kv("novalue").has_value());
}

// ---------------------------------------------------------------------------
// Seeded mutation of the five library grammars
// ---------------------------------------------------------------------------

TEST(ParseFuzz, TraceGrammar) {
  service::TraceGenConfig gen;
  gen.count = 6;
  gen.tenants = 2;
  gen.mix_ops = true;
  gen.mix_precisions = true;
  gen.deadline_frac = 0.5;
  const std::vector<std::string> corpus = {
      "# comment\n"
      "tenant bursty weight=2\n"
      "tenant quiet weight=0.5\n"
      "req id=1 t=0 tenant=bursty op=potrf prec=d n=32,48,64\n"
      "req id=2 t=0.0005 tenant=quiet op=posv prec=s n=24 nrhs=4 seed=7\n"
      "req id=3 t=1e-3 tenant=bursty op=potrf prec=d n=8 deadline=0.004\n",
      service::format_trace(service::make_trace(gen))};
  fuzz(corpus, [](const std::string& text) {
    std::string once;
    if (!parses(text, [&](const std::string& in) {
          once = service::format_trace(service::parse_trace(in));
        }))
      return false;
    EXPECT_EQ(service::format_trace(service::parse_trace(once)), once) << "input: " << text;
    return true;
  });
}

TEST(ParseFuzz, FaultSpec) {
  const std::vector<std::string> corpus = {
      "seed=7;transient:rate=0.2;die:exec=1,after=2",
      "transient:exec=0,chunk=3,times=2;hang:exec=-1,chunk=1",
      "seed=18446744073709551615;transient:rate=0.123456789"};
  fuzz(corpus, [](const std::string& spec) {
    std::string once;
    if (!parses(spec,
                [&](const std::string& in) { once = fault::parse_fault_spec(in).describe(); }))
      return false;
    EXPECT_EQ(fault::parse_fault_spec(once).describe(), once) << "input: " << spec;
    return true;
  });
}

TEST(ParseFuzz, DevicePoolGrammar) {
  const std::vector<std::string> corpus = {"cpu,k40c,p100", "k40c:4streams:2gb",
                                           "p100:0.5gb:2streams, cpu"};
  fuzz(corpus, [](const std::string& csv) {
    return parses(csv, [](const std::string& in) { (void)hetero::DevicePool::parse(in); });
  });
}

TEST(ParseFuzz, AdmissionSpec) {
  const std::vector<std::string> corpus = {
      "max-queue=8; max-gb=0.5 ;tenant-rate=2.5;burst=0.1;shed-horizon=0.2;deadlines=off",
      "max-queue=3", "tenant-rate=1e-3;deadlines=on"};
  fuzz(corpus, [](const std::string& spec) {
    return parses(spec, [](const std::string& in) { (void)service::parse_admission_spec(in); });
  });
}

TEST(ParseFuzz, TuningProfile) {
  using namespace vbatch::blas::micro;
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "vbatch_parse_fuzz_tuning.json";
  const std::string resaved = dir + "vbatch_parse_fuzz_tuning_resaved.json";
  TuningProfile p = TuningProfile::defaults(Isa::Scalar);
  p.shapes[0].min_mnk = 8192.5;
  ASSERT_TRUE(save_tuning_profile(p, path));
  std::ifstream in(path);
  const std::string saved((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  fuzz({saved}, [&](const std::string& text) {
    std::ofstream(path, std::ios::trunc) << text;
    std::string why;
    const auto loaded = load_tuning_profile(path, &why);
    if (!loaded) {
      EXPECT_FALSE(why.empty()) << "input: " << text;
      return false;
    }
    // What loads is valid, and saves and loads back unchanged.
    EXPECT_TRUE(validate_profile(*loaded, &why)) << why << "\ninput: " << text;
    EXPECT_TRUE(save_tuning_profile(*loaded, resaved));
    const auto again = load_tuning_profile(resaved, &why);
    EXPECT_TRUE(again.has_value() && *again == *loaded) << why << "\ninput: " << text;
    return true;
  });
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}
