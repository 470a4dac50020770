/**
 * @file
 * Registry <-> documentation drift test.
 *
 * DESIGN.md section 6 carries the diagnostic-code table users and CI
 * consumers read; the registry in analysis/diagnostics.cc is what the
 * engine enforces. The two rot independently unless a test pins them
 * together: every registered code must be documented (directly or via
 * a range row like "AS001–AS009") with the registered severity, and
 * every documented code must exist in the registry. The same goes for
 * option fields: every `SessionOptions::x`, `AStitchOptions::x`,
 * `RouterOptions::x`, `DynamicSessionOptions::x` or `TuningOptions::x`
 * the docs name must be declared in its header. `AnalysisOptions` and
 * `VerifierOptions` no longer exist, so the docs may name none of their
 * fields.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"

namespace astitch {
namespace {

std::string
trim(const std::string &s)
{
    const std::size_t a = s.find_first_not_of(" \t");
    if (a == std::string::npos)
        return "";
    const std::size_t b = s.find_last_not_of(" \t");
    return s.substr(a, b - a + 1);
}

/** One documented table row: a single code or an inclusive range. */
struct DocRow
{
    std::string lo;       ///< e.g. "AS001"
    std::string hi;       ///< equal to lo for single-code rows
    std::string severity; ///< "Error" / "Warning" / "Note"
    bool covers(const std::string &code) const
    {
        return lo <= code && code <= hi;
    }
};

/**
 * Parse the AS-code rows out of DESIGN.md: lines shaped
 * "| AS101 | Error | ... |" or "| AS001–AS009 | Error | ... |" (both
 * the en-dash and a plain dash split a range).
 */
std::vector<DocRow>
parseDesignTable(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::vector<DocRow> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("| AS", 0) != 0)
            continue;
        // Split the row into cells.
        std::vector<std::string> cells;
        std::stringstream ss(line);
        std::string cell;
        while (std::getline(ss, cell, '|'))
            cells.push_back(trim(cell));
        // cells[0] is the empty prefix before the leading '|'.
        if (cells.size() < 3)
            continue;
        std::string codes = cells[1];
        // Normalize the UTF-8 en-dash to '-'.
        const std::string en_dash = "\xE2\x80\x93";
        for (std::size_t at = codes.find(en_dash);
             at != std::string::npos; at = codes.find(en_dash))
            codes.replace(at, en_dash.size(), "-");
        DocRow row;
        const std::size_t dash = codes.find('-');
        if (dash == std::string::npos) {
            row.lo = row.hi = codes;
        } else {
            row.lo = trim(codes.substr(0, dash));
            row.hi = trim(codes.substr(dash + 1));
        }
        row.severity = cells[2];
        rows.push_back(std::move(row));
    }
    return rows;
}

std::string
capitalizedSeverity(Severity severity)
{
    std::string name = severityName(severity);
    if (!name.empty())
        name[0] = static_cast<char>(std::toupper(name[0]));
    return name;
}

const char *kDesignPath = ASTITCH_SOURCE_DIR "/DESIGN.md";

TEST(DocsDrift, EveryRegisteredCodeIsDocumentedWithItsSeverity)
{
    const std::vector<DocRow> rows = parseDesignTable(kDesignPath);
    ASSERT_FALSE(rows.empty());
    for (const DiagnosticCode &code : diagnosticCodes()) {
        const DocRow *doc = nullptr;
        for (const DocRow &row : rows) {
            if (row.covers(code.code)) {
                doc = &row;
                break;
            }
        }
        ASSERT_NE(doc, nullptr)
            << code.code << " (" << code.title
            << ") is registered but missing from the DESIGN.md table";
        EXPECT_EQ(doc->severity, capitalizedSeverity(code.severity))
            << code.code << " severity drifted between registry and "
            << "DESIGN.md";
    }
}

TEST(DocsDrift, EveryDocumentedCodeIsRegistered)
{
    const std::vector<DocRow> rows = parseDesignTable(kDesignPath);
    ASSERT_FALSE(rows.empty());
    for (const DocRow &row : rows) {
        EXPECT_NE(findDiagnosticCode(row.lo), nullptr)
            << row.lo << " documented in DESIGN.md but not registered";
        EXPECT_NE(findDiagnosticCode(row.hi), nullptr)
            << row.hi << " documented in DESIGN.md but not registered";
        // A range must not promise codes the registry skips: every
        // registered code inside it exists by construction, but the
        // endpoints anchor the range to real entries (checked above).
        EXPECT_EQ(familyOf(row.lo), familyOf(row.hi))
            << "range " << row.lo << "-" << row.hi
            << " spans families; document families separately";
    }
}

TEST(DocsDrift, NoDuplicateDocumentation)
{
    const std::vector<DocRow> rows = parseDesignTable(kDesignPath);
    for (const DiagnosticCode &code : diagnosticCodes()) {
        int covered = 0;
        for (const DocRow &row : rows)
            covered += row.covers(code.code) ? 1 : 0;
        EXPECT_LE(covered, 1)
            << code.code << " is documented by more than one table row";
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Body of `struct @p name { ... };` in @p header_text, or "" when the
 * header declares no such struct. */
std::string
structBody(const std::string &header_text, const std::string &name)
{
    const std::string opener = "struct " + name + "\n{";
    const std::size_t start = header_text.find(opener);
    if (start == std::string::npos)
        return "";
    int depth = 0;
    for (std::size_t i = start + opener.size() - 1; i < header_text.size();
         ++i) {
        if (header_text[i] == '{')
            ++depth;
        else if (header_text[i] == '}' && --depth == 0)
            return header_text.substr(start, i - start);
    }
    return "";
}

TEST(DocsDrift, EveryDocumentedOptionFieldIsDeclared)
{
    const std::map<std::string, std::string> headers = {
        {"SessionOptions", "src/runtime/session.h"},
        {"AStitchOptions", "src/core/stitch_codegen.h"},
        {"AnalysisOptions", "src/analysis/analyzer.h"},
        {"VerifierOptions", "src/analysis/kernel_verifier.h"},
        {"RouterOptions", "src/serve/router.h"},
        {"DynamicSessionOptions", "src/runtime/dynamic_session.h"},
        {"TuningOptions", "src/opt/autotuner.h"},
    };
    const std::string root = ASTITCH_SOURCE_DIR "/";
    const std::regex mention(
        "\\b(SessionOptions|AStitchOptions|AnalysisOptions|VerifierOptions|"
        "RouterOptions|DynamicSessionOptions|TuningOptions)::(\\w+)");
    std::set<std::pair<std::string, std::string>> named;
    for (const char *doc : {"DESIGN.md", "README.md"}) {
        const std::string text = readFile(root + doc);
        for (std::sregex_iterator it(text.begin(), text.end(), mention), end;
             it != end; ++it)
            named.emplace((*it)[1], (*it)[2]);
    }
    ASSERT_FALSE(named.empty());
    for (const auto &[type, field] : named) {
        const std::string body =
            structBody(readFile(root + headers.at(type)), type);
        const std::regex declared("\\b" + field + "\\s*[=;({]");
        EXPECT_TRUE(std::regex_search(body, declared))
            << type << "::" << field << " is named in DESIGN.md or "
            << "README.md but not declared in " << headers.at(type);
    }
}

} // namespace
} // namespace astitch
