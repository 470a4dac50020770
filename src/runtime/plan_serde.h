/**
 * @file
 * Versioned binary serialization of compiled kernel artifacts and of
 * the tuning DB, the codebase's one on-disk format.
 *
 * The AOT artifact cache (runtime/artifact_cache.h) persists whole
 * JitCacheEntry values — clusters, kernel plans with their access
 * summaries and shape certificates, per-cluster diagnostics, the
 * degradation report, compile timings and tuning outcomes — so a warm
 * process restores a compilation instead of re-running the pipeline.
 * The tuning DB (runtime/tuning_db.h) persists its TuningDbEntry list
 * in the same envelope under its own key. This module is the
 * pure-bytes layer beneath both: it never touches the filesystem, which
 * keeps every encode/decode path unit-testable against hand-corrupted
 * buffers.
 *
 * Wire format. Fixed-width little-endian integers, f64 by bit pattern,
 * length-prefixed strings, count-prefixed sequences. Unordered maps
 * (tuning overrides) are serialized sorted by key so equal entries
 * produce bit-identical payloads. The payload carries no internal
 * checksums — integrity is the envelope's job. Each persisted
 * structure is described once, by a single field walk that both the
 * encoder and the decoder run, so adding a field is one edit and the
 * two directions cannot desynchronise.
 *
 * Envelope. wrapArtifact() frames a payload for disk:
 *
 *   magic "ASTC" | u32 format version | key (length-prefixed)
 *   | u64 payload size | u64 payload checksum | u64 header checksum
 *   | payload bytes
 *
 * where both checksums are hash64 (support/atomic_file), which reads a
 * word at a time — the header checksum covers everything before it,
 * the payload checksum the payload bytes. An envelope is built in one
 * buffer: a counting pass of the same field walk sizes it, the header's
 * room is reserved in front, and the payload is written behind it once.
 * unwrapArtifact() re-derives both checksums and classifies every way a
 * file can lie: truncation, foreign bytes, bit-rot in header or payload,
 * a version from another build, a key collision from a renamed file. Decoding is hardened: every count and
 * length field is capped by the bytes actually remaining, so a corrupt
 * length can never drive an allocation or an out-of-bounds read.
 *
 * Versioning. kArtifactFormatVersion is the envelope+payload wire
 * format; kArtifactPassVersion tags the *semantics* of what a stored
 * plan means (pipeline/cost-model/analysis changes that invalidate old
 * artifacts). The cache appends the pass version to every key, so a
 * semantic bump turns old artifacts into clean version-skew misses
 * rather than deserialization failures.
 */
#ifndef ASTITCH_RUNTIME_PLAN_SERDE_H
#define ASTITCH_RUNTIME_PLAN_SERDE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/jit_cache.h"

namespace astitch {

/**
 * Wire-format version of the envelope and payload encoding. v2 added
 * the emitted CUDA source to each kernel plan so the AS9xx emitted-text
 * analyzer can re-verify warm-loaded artifacts against the same text
 * that was checked at compile time. v3 checks the envelope with hash64
 * where v2 used FNV-1a, so a v2 file fails its header checksum and
 * reads as VersionSkew.
 */
inline constexpr std::uint32_t kArtifactFormatVersion = 3;

/**
 * Semantic version of the compilation pipeline whose plans artifacts
 * record. Bump whenever stored plans become untrustworthy (scheme
 * semantics, access-model meaning, certificate interpretation); old
 * artifacts then miss by key instead of deserializing into lies.
 */
inline constexpr int kArtifactPassVersion = 1;

/** Serialize a whole cache entry into a self-contained payload. */
std::string serializePlanPayload(const JitCacheEntry &entry);

/**
 * The artifact file for @p entry under @p key: the same bytes as
 * wrapArtifact(key, serializePlanPayload(entry)), with the payload
 * written straight into the envelope's buffer.
 */
std::string serializeArtifact(const std::string &key,
                              const JitCacheEntry &entry);

/**
 * Decode @p payload into @p entry. Returns false (with a one-line
 * reason in @p error, entry left partially filled) on any structural
 * problem: short buffer, trailing garbage, out-of-range enum, counts
 * larger than the remaining bytes. Never throws, never over-allocates.
 */
bool deserializePlanPayload(std::string_view payload, JitCacheEntry *entry,
                            std::string *error);
bool deserializePlanPayload(const std::string &payload, JitCacheEntry *entry,
                            std::string *error);

/**
 * The tuning DB file holding @p entries: their encoding framed under
 * @p key in the artifact envelope.
 */
std::string serializeTuningDb(const std::string &key,
                              const std::vector<TuningDbEntry> &entries);

/**
 * Unwrap @p bytes as a tuning DB file framed under @p key and decode
 * its entries. Returns false, with a one-line reason in @p error, when
 * the envelope rejects the bytes (its artifactStatusName()) or the
 * payload does not decode; never throws, never over-allocates.
 */
bool deserializeTuningDb(const std::string &bytes, const std::string &key,
                         std::vector<TuningDbEntry> *entries,
                         std::string *error);

/** Why unwrapArtifact() rejected a file (Ok = it did not). */
enum class ArtifactStatus {
    Ok,
    Truncated,          ///< shorter than its header claims
    BadMagic,           ///< not an artifact file at all
    BadHeaderChecksum,  ///< header bytes corrupted
    BadPayloadChecksum, ///< payload bytes corrupted
    KeyMismatch,        ///< a different compilation's artifact
    VersionSkew,        ///< written by an incompatible wire format
};

/** Printable name of an artifact status. */
std::string artifactStatusName(ArtifactStatus status);

/** Frame @p payload under @p key into the on-disk envelope. */
std::string wrapArtifact(const std::string &key, const std::string &payload);

/**
 * Validate @p bytes as an artifact for @p expected_key and extract its
 * payload. Checks run in the order the fields can be trusted: length,
 * magic, header checksum, wire version, key, payload checksum. The
 * string_view form points @p payload into @p bytes (empty unless Ok),
 * so a warm start decodes the payload where it lies.
 */
ArtifactStatus unwrapArtifact(const std::string &bytes,
                              const std::string &expected_key,
                              std::string_view *payload);
ArtifactStatus unwrapArtifact(const std::string &bytes,
                              const std::string &expected_key,
                              std::string *payload);

/**
 * Self-consistency variant for inspection tooling (`astitch-cli
 * cache`): validates @p bytes against its own embedded key — so
 * KeyMismatch never occurs — and reports that key through @p key (best
 * effort: filled whenever the header parses, even on failure).
 */
ArtifactStatus inspectArtifact(const std::string &bytes, std::string *key,
                               std::string *payload);

} // namespace astitch

#endif // ASTITCH_RUNTIME_PLAN_SERDE_H
