#include "opt/tuning_db.h"

#include <sstream>

#include "support/atomic_file.h"
#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

namespace {

/**
 * Backslash before every quote and backslash: the exact inverse of
 * parseString(), which keeps the character after a backslash
 * literally. The shared jsonEscape() also rewrites newlines and tabs,
 * which parseString() would read back as the letters 'n' and 't'.
 */
std::string
escapeDbString(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/** Value text following `"field":` on @p line; empty when absent. */
std::string
fieldText(const std::string &line, const std::string &field)
{
    const std::string needle = strCat("\"", field, "\":");
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return {};
    std::size_t pos = at + needle.size();
    while (pos < line.size() && line[pos] == ' ')
        ++pos;
    return line.substr(pos);
}

bool
parseString(const std::string &line, const std::string &field,
            std::string *out)
{
    const std::string text = fieldText(line, field);
    if (text.empty() || text[0] != '"')
        return false;
    std::string value;
    for (std::size_t i = 1; i < text.size(); ++i) {
        if (text[i] == '\\' && i + 1 < text.size()) {
            value.push_back(text[++i]);
        } else if (text[i] == '"') {
            *out = std::move(value);
            return true;
        } else {
            value.push_back(text[i]);
        }
    }
    return false;
}

bool
parseDouble(const std::string &line, const std::string &field,
            double *out)
{
    const std::string text = fieldText(line, field);
    if (text.empty())
        return false;
    try {
        *out = std::stod(text);
    } catch (...) {
        return false;
    }
    return true;
}

bool
parseBool(const std::string &line, const std::string &field, bool *out)
{
    const std::string text = fieldText(line, field);
    if (strStartsWith(text, "true")) {
        *out = true;
        return true;
    }
    if (strStartsWith(text, "false")) {
        *out = false;
        return true;
    }
    return false;
}

/** The `[...]` payload of an array field (single-line entries). */
bool
arrayText(const std::string &line, const std::string &field,
          std::string *out)
{
    const std::string text = fieldText(line, field);
    if (text.empty() || text[0] != '[')
        return false;
    const std::size_t end = text.find(']');
    if (end == std::string::npos)
        return false;
    *out = text.substr(1, end - 1);
    return true;
}

bool
parseIntField(const std::string &obj, const std::string &field, int *out)
{
    double v = 0;
    if (!parseDouble(obj, field, &v))
        return false;
    *out = static_cast<int>(v);
    return true;
}

/** Parse one single-line entry object; false on any malformed field. */
bool
parseEntryLine(const std::string &line, TuningDbEntry *entry)
{
    if (!parseString(line, "key", &entry->key) || entry->key.empty())
        return false;
    if (!parseDouble(line, "heuristic_cost_us",
                     &entry->heuristic_cost_us) ||
        !parseDouble(line, "tuned_cost_us", &entry->tuned_cost_us) ||
        !parseBool(line, "improved", &entry->improved)) {
        return false;
    }
    std::string schemes;
    std::string mappings;
    if (!arrayText(line, "schemes", &schemes) ||
        !arrayText(line, "mappings", &mappings)) {
        return false;
    }
    for (const std::string &obj : strSplit(schemes, '}')) {
        if (strTrim(obj).empty() || strTrim(obj) == ",")
            continue;
        TuningDbEntry::SchemeDecision d;
        if (!parseIntField(obj, "node", &d.node) ||
            !parseIntField(obj, "scheme", &d.scheme)) {
            return false;
        }
        entry->schemes.push_back(d);
    }
    for (const std::string &obj : strSplit(mappings, '}')) {
        if (strTrim(obj).empty() || strTrim(obj) == ",")
            continue;
        TuningDbEntry::MappingDecision d;
        if (!parseIntField(obj, "node", &d.node) ||
            !parseIntField(obj, "block", &d.block) ||
            !parseIntField(obj, "split", &d.split)) {
            return false;
        }
        entry->mappings.push_back(d);
    }
    return true;
}

void
writeEntryLine(std::ostream &os, const TuningDbEntry &e)
{
    os << "    {\"key\": \"" << escapeDbString(e.key) << "\""
       << ", \"heuristic_cost_us\": " << e.heuristic_cost_us
       << ", \"tuned_cost_us\": " << e.tuned_cost_us
       << ", \"improved\": " << (e.improved ? "true" : "false")
       << ", \"schemes\": [";
    for (std::size_t i = 0; i < e.schemes.size(); ++i) {
        os << (i ? ", " : "") << "{\"node\": " << e.schemes[i].node
           << ", \"scheme\": " << e.schemes[i].scheme << "}";
    }
    os << "], \"mappings\": [";
    for (std::size_t i = 0; i < e.mappings.size(); ++i) {
        os << (i ? ", " : "") << "{\"node\": " << e.mappings[i].node
           << ", \"block\": " << e.mappings[i].block
           << ", \"split\": " << e.mappings[i].split << "}";
    }
    os << "]}";
}

} // namespace

std::string
TuningDb::makeKey(std::uint64_t cluster_fingerprint,
                  const std::string &device_name,
                  const std::string &options_tag)
{
    return strCat(strHex(cluster_fingerprint), "|", device_name, "|",
                  options_tag, "|v", kPassVersion);
}

TuningDb::TuningDb(std::string path) : path_(std::move(path))
{
    if (path_.empty())
        return;
    std::string text;
    const FileReadStatus read = readFileBytes(path_, &text);
    if (read == FileReadStatus::Absent)
        return; // no file yet: empty DB, first save creates it
    if (read == FileReadStatus::Error) {
        warn("tuning DB ", path_, " exists but cannot be read; starting "
             "from an empty DB");
        load_failed_ = true;
        return;
    }
    if (strTrim(text).empty())
        return;

    bool ok = false;
    double version = 0;
    if (parseDouble(text, "version", &version) &&
        static_cast<int>(version) == kFileVersion) {
        ok = true;
        std::istringstream lines(text);
        std::string line;
        while (std::getline(lines, line)) {
            const std::string trimmed = strTrim(line);
            if (!strStartsWith(trimmed, "{\"key\""))
                continue;
            TuningDbEntry entry;
            if (!parseEntryLine(trimmed, &entry)) {
                ok = false;
                break;
            }
            snapshot_[entry.key] = std::move(entry);
        }
    }
    if (!ok) {
        // Shared recovery path with the artifact cache: the corrupt
        // file is moved aside to a *.bad sidecar — the evidence
        // survives for inspection, and the next save() publishes a
        // fresh file instead of silently clobbering it.
        const std::string bad = quarantineFile(path_);
        warn("tuning DB ", path_,
             " is corrupt or from an unknown version; starting from an "
             "empty DB",
             bad.empty() ? "" : strCat(" (quarantined to ", bad, ")"));
        snapshot_.clear();
        load_failed_ = true;
    }
}

const TuningDbEntry *
TuningDb::lookup(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = snapshot_.find(key);
    if (it == snapshot_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    return &it->second;
}

void
TuningDb::record(TuningDbEntry entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(std::move(entry));
}

bool
TuningDb::save()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Later records win within the pending buffer (a re-tune of the
    // same key supersedes), and pending wins over the snapshot.
    for (TuningDbEntry &entry : pending_)
        snapshot_[entry.key] = std::move(entry);
    pending_.clear();
    if (path_.empty())
        return true;

    std::ostringstream out;
    out << "{\n  \"version\": " << kFileVersion << ",\n  \"entries\": [\n";
    bool first = true;
    for (const auto &[key, entry] : snapshot_) {
        if (!first)
            out << ",\n";
        first = false;
        writeEntryLine(out, entry);
    }
    out << "\n  ]\n}\n";
    // Crash-safe publish (temp + fsync + rename): a reader — or a
    // concurrent saver — observes the old DB or the new one, never a
    // torn mix.
    if (!atomicWriteFile(path_, out.str())) {
        warn("cannot publish tuning DB ", path_);
        return false;
    }
    return true;
}

TuningDb::Stats
TuningDb::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.entries = snapshot_.size();
    s.pending = pending_.size();
    s.load_failed = load_failed_;
    return s;
}

} // namespace astitch
