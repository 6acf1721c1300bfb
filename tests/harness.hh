/**
 * @file
 * Shared test harness.
 *
 * Re-exports the two-node testbed worlds (apps/testbed.hh — benchmarks
 * and examples build the same ones) and adds the helpers the test
 * suite kept reinventing privately:
 *
 *  - caller-located checks: fixture helpers assert on behalf of their
 *    caller, so failures must point at the *test* line, not the
 *    helper. Pass F4T_TEST_HERE into the helper and report through
 *    expectTrue/expectEq, or use the F4T_EXPECT / F4T_EXPECT_EQ
 *    macros directly;
 *  - ScopedRng: a fixed-seed sim::Random that, if the test ends up
 *    failing, prints its seed so the failure is reproducible even
 *    when someone later randomizes it;
 *  - runFor / settle: microsecond-denominated simulation advance;
 *  - F4T_EXPECT_PANIC: EXPECT_DEATH for a deliberate panic, whose
 *    flight-recorder dump lands in a scratch directory of its own.
 */

#ifndef F4T_TESTS_HARNESS_HH
#define F4T_TESTS_HARNESS_HH

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include <stdlib.h>

#include <gtest/gtest.h>

#include "apps/testbed.hh"
#include "sim/random.hh"

namespace f4t::test
{
using namespace f4t::testbed;

/** Advance @p sim by @p us microseconds of simulated time. */
inline void
runFor(sim::Simulation &sim, double us)
{
    sim.runFor(sim::microsecondsToTicks(us));
}

/** A call site captured in the test body (see file comment). */
struct SourceLoc
{
    const char *file;
    int line;
};

#define F4T_TEST_HERE (::f4t::test::SourceLoc{__FILE__, __LINE__})

inline void
expectTrue(bool ok, const char *what, SourceLoc loc)
{
    if (!ok)
        ADD_FAILURE_AT(loc.file, loc.line) << "expected: " << what;
}

template <class A, class B>
void
expectEq(const A &actual, const B &expected, const char *actual_expr,
         const char *expected_expr, SourceLoc loc)
{
    if (!(actual == expected)) {
        std::ostringstream oss;
        oss << "expected " << actual_expr << " == " << expected_expr
            << "\n  actual: " << actual << "\n  expected: " << expected;
        ADD_FAILURE_AT(loc.file, loc.line) << oss.str();
    }
}

#define F4T_EXPECT(cond) \
    ::f4t::test::expectTrue((cond), #cond, F4T_TEST_HERE)
#define F4T_EXPECT_EQ(actual, expected) \
    ::f4t::test::expectEq((actual), (expected), #actual, #expected, \
                          F4T_TEST_HERE)

/**
 * Fixed-seed RNG whose seed is echoed when the owning test fails, so
 * a red run always carries its reproduction recipe.
 */
class ScopedRng : public sim::Random
{
  public:
    explicit ScopedRng(std::uint64_t seed) : sim::Random(seed), seed_(seed)
    {}

    ~ScopedRng()
    {
        if (::testing::Test::HasFailure()) {
            std::printf("[ ScopedRng] test used seed %llu\n",
                        static_cast<unsigned long long>(seed_));
        }
    }

    std::uint64_t seed() const { return seed_; }

  private:
    std::uint64_t seed_;
};

/** Path of the one .f4tfr dump in @p dir; a test failure unless
 *  exactly one is there. */
inline std::string
onlyDumpIn(const std::string &dir)
{
    std::string found;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".f4tfr") {
            EXPECT_TRUE(found.empty())
                << "more than one dump in " << dir;
            found = entry.path().string();
        }
    }
    EXPECT_FALSE(found.empty()) << "no .f4tfr dump in " << dir;
    return found;
}

/**
 * EXPECT_DEATH for a statement that panics on purpose. A panic dumps
 * the flight recorder into $F4T_DUMP_DIR (or the working directory),
 * where an expected dump would pile up run after run and mix with the
 * dump of a real failure. So the statement runs with F4T_DUMP_DIR
 * pointed at a fresh temporary directory (set in the death test's
 * child only), the helper checks that exactly one dump landed there —
 * the dump-on-panic contract stays tested — and removes the directory.
 */
#define F4T_EXPECT_PANIC(statement, regex)                              \
    do {                                                                \
        SCOPED_TRACE("F4T_EXPECT_PANIC(" #statement ")");               \
        std::string f4t_dump_dir_ =                                     \
            ::testing::TempDir() + "f4t-panic-XXXXXX";                  \
        ASSERT_NE(::mkdtemp(f4t_dump_dir_.data()), nullptr);            \
        EXPECT_DEATH(                                                   \
            {                                                           \
                ::setenv("F4T_DUMP_DIR", f4t_dump_dir_.c_str(), 1);     \
                statement;                                              \
            },                                                          \
            regex);                                                     \
        ::f4t::test::onlyDumpIn(f4t_dump_dir_);                         \
        std::filesystem::remove_all(f4t_dump_dir_);                     \
    } while (0)

} // namespace f4t::test

#endif // F4T_TESTS_HARNESS_HH
