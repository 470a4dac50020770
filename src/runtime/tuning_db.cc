#include "runtime/tuning_db.h"

#include "runtime/plan_serde.h"
#include "support/atomic_file.h"
#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

namespace {

/** The envelope key of a DB file this build reads and writes. */
std::string
fileKey()
{
    return strCat("tuning-db|v", TuningDb::kFileVersion);
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
    std::string bytes;
    const FileReadStatus read = readFileBytes(path_, &bytes);
    if (read == FileReadStatus::Absent)
        return; // no file yet: empty DB, first save creates it
    if (read == FileReadStatus::Error) {
        // The path names something that is not a readable file, a
        // directory say: it is the user's, so it stays where it is.
        warn("tuning DB ", path_, " exists but cannot be read; starting "
             "from an empty DB");
        load_failed_ = true;
        return;
    }

    std::vector<TuningDbEntry> entries;
    std::string why;
    if (deserializeTuningDb(bytes, fileKey(), &entries, &why)) {
        for (TuningDbEntry &entry : entries)
            snapshot_[entry.key] = std::move(entry);
        return;
    }
    // Shared recovery path with the artifact cache: the unusable file
    // is moved aside to a *.bad sidecar — the evidence survives for
    // inspection, and the next save() publishes a fresh file instead of
    // silently clobbering it.
    const std::string bad = quarantineFile(path_);
    warn("tuning DB ", path_, " is unusable (", why,
         "); starting from an empty DB",
         bad.empty() ? "" : strCat(" (quarantined to ", bad, ")"));
    load_failed_ = true;
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

    std::vector<TuningDbEntry> entries;
    entries.reserve(snapshot_.size());
    for (const auto &[key, entry] : snapshot_)
        entries.push_back(entry);
    // Crash-safe publish (temp + fsync + rename): a reader — or a
    // concurrent saver — observes the old DB or the new one, never a
    // torn mix.
    if (!atomicWriteFile(path_, serializeTuningDb(fileKey(), entries))) {
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
