/**
 * @file
 * Strict command-line parsing for binaries that take their own flags
 * (after bench::Obs has stripped its capture flags).
 *
 * Declare each flag, then parse(). An unknown flag, a flag given
 * twice, a flag with its value missing, a number that is not a plain
 * non-negative integer in range (decimal, or hex after 0x), an output
 * path that cannot be written, or a positional argument the binary
 * does not take prints the problem and the usage line and exits 2,
 * before the binary simulates anything.
 */

#ifndef F4T_BENCH_CLI_ARGS_HH
#define F4T_BENCH_CLI_ARGS_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <unistd.h>

namespace f4t::bench
{

/**
 * Why a file cannot be written at @p path — it names a directory or a
 * read-only file, or it does not exist and its directory is missing or
 * not writable — or empty when it can. Checked when a flag is parsed,
 * so a requested artifact that cannot be written fails the run before
 * it simulates.
 */
inline std::string
outputPathProblem(const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path file(path);
    if (fs::is_directory(file, ec))
        return "'" + path + "' is a directory";
    if (fs::exists(file, ec)) {
        if (::access(path.c_str(), W_OK) != 0)
            return "'" + path + "' is not writable";
        return {};
    }
    fs::path dir = file.parent_path();
    if (dir.empty())
        dir = ".";
    if (!fs::is_directory(dir, ec))
        return "directory '" + dir.string() + "' does not exist";
    if (::access(dir.c_str(), W_OK) != 0)
        return "directory '" + dir.string() + "' is not writable";
    return {};
}

class CliArgs
{
  public:
    /** @p usage is the synopsis printed after "usage: ". */
    CliArgs(std::string program, std::string usage)
        : program_(std::move(program)), usage_(std::move(usage))
    {}

    /** A switch: --name sets @p on. */
    CliArgs &
    flag(const char *name, bool &on)
    {
        options_.push_back({name, false, [&on](const char *) {
                                on = true;
                                return std::string();
                            }});
        return *this;
    }

    /** --name TEXT, where TEXT is nonempty and not itself a flag. */
    CliArgs &
    text(const char *name, std::string &value)
    {
        options_.push_back({name, true, [&value](const char *arg) {
                                value = arg;
                                return std::string();
                            }});
        return *this;
    }

    /** --name PATH, where PATH can be written (outputPathProblem). */
    CliArgs &
    output(const char *name, std::string &value)
    {
        options_.push_back({name, true, [name, &value](const char *arg) {
                                std::string problem = outputPathProblem(arg);
                                if (!problem.empty())
                                    return std::string(name) + ": " +
                                           problem;
                                value = arg;
                                return std::string();
                            }});
        return *this;
    }

    /** --name N with N in [0, @p max]; @p given, if set, records that
     *  the flag appeared. */
    CliArgs &
    number(const char *name, std::uint64_t max, std::uint64_t &value,
           bool *given = nullptr)
    {
        options_.push_back(
            {name, true, [name, max, &value, given](const char *arg) {
                 if (!parseNumber(arg, max, value))
                     return std::string(name) + " needs a number in [0, " +
                            std::to_string(max) + "], not '" + arg + "'";
                 if (given != nullptr)
                     *given = true;
                 return std::string();
             }});
        return *this;
    }

    /**
     * Parse argv[1..argc). Arguments that do not start with '-' are
     * positional: they go to @p positionals, and are an error when it
     * is null.
     */
    void
    parse(int argc, char **argv,
          std::vector<std::string> *positionals = nullptr) const
    {
        std::vector<const Option *> seen;
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.empty() || arg[0] != '-') {
                if (positionals == nullptr)
                    fail("unexpected argument '" + arg + "'");
                positionals->push_back(arg);
                continue;
            }
            const Option *option = find(arg);
            if (option == nullptr)
                fail("unknown flag '" + arg + "'");
            if (std::find(seen.begin(), seen.end(), option) != seen.end())
                fail(arg + " given twice");
            seen.push_back(option);
            const char *value = nullptr;
            if (option->takesValue) {
                if (i + 1 >= argc || argv[i + 1][0] == '\0' ||
                    (argv[i + 1][0] == '-' && argv[i + 1][1] == '-'))
                    fail(arg + " needs a value");
                value = argv[++i];
            }
            std::string problem = option->apply(value);
            if (!problem.empty())
                fail(problem);
        }
    }

    /** Digits only (after an optional 0x), no sign, space or suffix,
     *  and at most @p max. */
    static bool
    parseNumber(const char *text, std::uint64_t max, std::uint64_t &out)
    {
        int base = 10;
        if (text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
            base = 16;
            text += 2;
        }
        auto first = static_cast<unsigned char>(text[0]);
        if (base == 10 ? !std::isdigit(first) : !std::isxdigit(first))
            return false;
        errno = 0;
        char *end = nullptr;
        unsigned long long value = std::strtoull(text, &end, base);
        if (*end != '\0' || errno == ERANGE || value > max)
            return false;
        out = value;
        return true;
    }

    /** Print @p problem and the usage line, then exit 2. */
    [[noreturn]] void
    fail(const std::string &problem) const
    {
        std::fprintf(stderr, "%s: %s\nusage: %s %s\n", program_.c_str(),
                     problem.c_str(), program_.c_str(), usage_.c_str());
        std::exit(2);
    }

  private:
    struct Option
    {
        std::string name;
        bool takesValue;
        /** Store the value; return the problem with it, if any. */
        std::function<std::string(const char *)> apply;
    };

    const Option *
    find(const std::string &name) const
    {
        for (const Option &option : options_) {
            if (option.name == name)
                return &option;
        }
        return nullptr;
    }

    std::string program_;
    std::string usage_;
    std::vector<Option> options_;
};

} // namespace f4t::bench

#endif // F4T_BENCH_CLI_ARGS_HH
