/**
 * @file
 * Lint: no fatalIf/panicIf call formats its message eagerly.
 *
 * fatalIf(cond, parts...) and panicIf(cond, parts...) evaluate every
 * message part before they test the condition, so a part that calls
 * toString(), strCat(), strJoin() or std::to_string() builds a string
 * on every passing check. Pass the object itself (fatal() streams it
 * only on failure), or write `if (cond) fatal(...)`. This test scans
 * every call in src/ and names each site that breaks the rule.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace astitch {
namespace {

/**
 * @p text with comments and the contents of string and character
 * literals replaced by spaces (newlines kept), so parentheses and
 * commas inside them cannot confuse the argument split below.
 */
std::string
blankLiteralsAndComments(const std::string &text)
{
    std::string out = text;
    std::size_t i = 0;
    const auto blank_until = [&](std::size_t end) {
        for (; i < end && i < out.size(); ++i) {
            if (out[i] != '\n')
                out[i] = ' ';
        }
    };
    while (i < text.size()) {
        const char c = text[i];
        if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
            blank_until(text.find('\n', i));
        } else if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
            const std::size_t end = text.find("*/", i + 2);
            blank_until(end == std::string::npos ? end : end + 2);
        } else if (c == '"' || c == '\'') {
            std::size_t end = i + 1;
            while (end < text.size() && text[end] != c) {
                end += text[end] == '\\' ? 2 : 1;
            }
            ++i; // keep the opening quote
            blank_until(end);
            ++i; // and the closing one
        } else {
            ++i;
        }
    }
    return out;
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** @p text with each whitespace run turned into one space, trimmed. */
std::string
collapseSpaces(const std::string &text)
{
    std::string out;
    for (char c : text) {
        const bool space = std::isspace(static_cast<unsigned char>(c));
        if (!space)
            out += c;
        else if (!out.empty() && out.back() != ' ')
            out += ' ';
    }
    if (!out.empty() && out.back() == ' ')
        out.pop_back();
    return out;
}

/** One fatalIf/panicIf call whose message formats eagerly. */
struct EagerSite
{
    int line = 0;
    std::string call; ///< "fatalIf" or "panicIf"
    std::string part; ///< its first offending message part
};

/** What one scan of a source file found. */
struct CheckScan
{
    int calls = 0;                ///< fatalIf/panicIf calls seen
    std::vector<EagerSite> eager; ///< those that format eagerly
};

/** Scan every fatalIf/panicIf call in @p source. */
CheckScan
scanChecks(const std::string &source)
{
    static const char *const kFormatters[] = {"toString(", "strCat(",
                                              "strJoin(", "std::to_string("};
    const std::string code = blankLiteralsAndComments(source);
    CheckScan scan;
    for (const std::string call : {"fatalIf", "panicIf"}) {
        for (std::size_t at = code.find(call + "("); at != std::string::npos;
             at = code.find(call + "(", at + 1)) {
            if (at > 0 && isIdentChar(code[at - 1]))
                continue;
            ++scan.calls;
            // Split the arguments at top-level commas; the first one is
            // the condition, every later one a message part.
            std::vector<std::pair<std::size_t, std::size_t>> args;
            std::size_t begin = at + call.size() + 1;
            int depth = 0;
            std::size_t i = begin;
            for (; i < code.size(); ++i) {
                const char c = code[i];
                if (c == '(' || c == '[' || c == '{') {
                    ++depth;
                } else if (c == ')' || c == ']' || c == '}') {
                    if (depth-- == 0)
                        break;
                } else if (c == ',' && depth == 0) {
                    args.emplace_back(begin, i);
                    begin = i + 1;
                }
            }
            args.emplace_back(begin, i);
            for (std::size_t a = 1; a < args.size(); ++a) {
                const std::string part =
                    code.substr(args[a].first, args[a].second - args[a].first);
                const bool eager = std::any_of(
                    std::begin(kFormatters), std::end(kFormatters),
                    [&part](const char *f) {
                        return part.find(f) != std::string::npos;
                    });
                if (eager) {
                    const int line = static_cast<int>(std::count(
                                         code.begin(), code.begin() + at,
                                         '\n')) +
                                     1;
                    scan.eager.push_back({line, call, collapseSpaces(part)});
                    break;
                }
            }
        }
    }
    return scan;
}

TEST(CheckMessageLint, ScannerSkipsLiteralsAndComments)
{
    // The literal's ')' must not end the call early, or the toString()
    // after it goes unseen.
    const CheckScan scan = scanChecks(
        "fatalIf(i >= n, \"index (\", i, \") out of range for \",\n"
        "        shape.toString());\n"
        "panicIf(x.toString() != \"\", \"cond may format\", shape);\n"
        "// fatalIf(bad, s.toString()); in a comment\n"
        "panicIf(bad, \"strCat(literal)\", 'c', shape);\n"
        "myfatalIf(bad, s.toString());\n");
    EXPECT_EQ(scan.calls, 3);
    ASSERT_EQ(scan.eager.size(), 1u);
    EXPECT_EQ(scan.eager[0].line, 1);
    EXPECT_EQ(scan.eager[0].call, "fatalIf");
    EXPECT_EQ(scan.eager[0].part, "shape.toString()");
}

TEST(CheckMessageLint, NoCheckInSrcFormatsItsMessageEagerly)
{
    const std::filesystem::path src =
        std::filesystem::path(ASTITCH_SOURCE_DIR) / "src";
    ASSERT_TRUE(std::filesystem::is_directory(src)) << src;
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(src)) {
        const std::string ext = entry.path().extension().string();
        if (entry.is_regular_file() && (ext == ".cc" || ext == ".h"))
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());

    int scanned_calls = 0;
    std::vector<std::string> eager;
    for (const std::filesystem::path &path : files) {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        const CheckScan scan = scanChecks(buffer.str());
        scanned_calls += scan.calls;
        for (const EagerSite &site : scan.eager) {
            eager.push_back(
                std::filesystem::relative(path, src).string() + ":" +
                std::to_string(site.line) + ": " + site.call +
                " message part `" + site.part + "`");
        }
    }
    // Guard against a scanner that silently matches nothing.
    EXPECT_GT(scanned_calls, 50);
    std::ostringstream report;
    for (const std::string &site : eager)
        report << "  " << site << "\n";
    EXPECT_TRUE(eager.empty())
        << eager.size()
        << " check(s) format their message before testing the condition; "
           "pass the object instead, or use `if (cond) fatal(...)`:\n"
        << report.str();
}

} // namespace
} // namespace astitch
