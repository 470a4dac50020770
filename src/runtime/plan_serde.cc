#include "runtime/plan_serde.h"

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/atomic_file.h"
#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

namespace {

// ---------------------------------------------------------------------
// Byte-level encoding: fixed-width little-endian, no padding, no
// host-endianness dependence. ByteSizer, ByteWriter and ByteReader share
// one vocabulary of field methods — the sizer's and the writer's take
// values, the reader's take the reference to decode into — so a single
// walk over a structure's fields (below) counts, encodes or decodes it.
// ---------------------------------------------------------------------

/** @p v in little-endian byte order, as the wire stores it. */
template <class Word>
Word
littleEndian(Word v)
{
    if constexpr (std::endian::native == std::endian::big) {
        if constexpr (sizeof v == 8)
            return __builtin_bswap64(v);
        else
            return __builtin_bswap32(v);
    }
    return v;
}

/** The counting pass: the bytes a ByteWriter would append, so the
 * writer's buffer is sized once. */
class ByteSizer
{
  public:
    static constexpr bool kDecoding = false;

    void u8(std::uint8_t) { bytes_ += 1; }
    void u32(std::uint32_t) { bytes_ += 4; }
    void u64(std::uint64_t) { bytes_ += 8; }
    void i32(std::int32_t) { bytes_ += 4; }
    void i64(std::int64_t) { bytes_ += 8; }
    void f64(double) { bytes_ += 8; }
    void boolean(bool) { bytes_ += 1; }
    void str(const std::string &s) { bytes_ += 4 + s.size(); }

    template <class Enum>
    void enumByte(Enum, Enum)
    {
        bytes_ += 1;
    }

    template <class Vec, class Walk>
    void seq(const Vec &elems, std::size_t /*min_elem_bytes*/,
             Walk &&element_walk)
    {
        bytes_ += 4;
        for (const auto &e : elems)
            element_walk(e);
    }

    std::size_t size() const { return bytes_; }

  private:
    std::size_t bytes_ = 0;
};

/** Writes the encoding into bytes a ByteSizer pass counted, an integer
 * as one 4- or 8-byte store. */
class ByteWriter
{
  public:
    static constexpr bool kDecoding = false;

    ByteWriter(char *at, char *end) : at_(at), end_(end) {}

    void u8(std::uint8_t v) { put(&v, 1); }
    void u32(std::uint32_t v) { word(v); }
    void u64(std::uint64_t v) { word(v); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void f64(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof v, "f64 must be 64-bit");
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        put(s.data(), s.size());
    }

    /** Enum as one byte (@p max bounds it only when decoding). */
    template <class Enum>
    void enumByte(Enum v, Enum /*max*/)
    {
        u8(static_cast<std::uint8_t>(v));
    }

    /** Count-prefixed sequence, each element through @p element_walk
     * (@p min_elem_bytes caps the count only when decoding). */
    template <class Vec, class Walk>
    void seq(const Vec &elems, std::size_t /*min_elem_bytes*/,
             Walk &&element_walk)
    {
        u32(static_cast<std::uint32_t>(elems.size()));
        for (const auto &e : elems)
            element_walk(e);
    }

    /** Whether every counted byte was written. */
    bool full() const { return at_ == end_; }

  private:
    template <class Word>
    void word(Word v)
    {
        v = littleEndian(v);
        put(&v, sizeof v);
    }

    void put(const void *bytes, std::size_t n)
    {
        panicIf(n > static_cast<std::size_t>(end_ - at_),
                "artifact encoding overran its counting pass");
        std::memcpy(at_, bytes, n);
        at_ += n;
    }

    char *at_;
    char *end_;
};

/**
 * Hardened sequential reader: every length/count is capped by the
 * bytes actually remaining, so corrupt size fields fail cleanly
 * instead of driving allocations or out-of-bounds reads. The first
 * failure latches; subsequent reads decode zero values.
 */
class ByteReader
{
  public:
    static constexpr bool kDecoding = true;

    explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }
    std::size_t remaining() const { return bytes_.size() - pos_; }
    bool atEnd() const { return pos_ == bytes_.size(); }

    void fail(const std::string &why)
    {
        if (!failed_) {
            failed_ = true;
            error_ = strCat(why, " at byte ", pos_, " of ", bytes_.size());
        }
    }

    std::uint8_t u8() { return word<std::uint8_t>("short read (u8)"); }
    std::uint32_t u32() { return word<std::uint32_t>("short read (u32)"); }
    std::uint64_t u64() { return word<std::uint64_t>("short read (u64)"); }

    void u32(std::uint32_t &v) { v = u32(); }
    void u64(std::uint64_t &v) { v = u64(); }
    void i32(std::int32_t &v) { v = static_cast<std::int32_t>(u32()); }
    void i64(std::int64_t &v) { v = static_cast<std::int64_t>(u64()); }

    void f64(double &v)
    {
        const std::uint64_t bits = u64();
        std::memcpy(&v, &bits, sizeof v);
    }

    void boolean(bool &v)
    {
        const std::uint8_t b = u8();
        if (b > 1)
            fail("boolean out of range");
        v = b == 1;
    }

    void str(std::string &s)
    {
        const std::uint32_t n = u32();
        s.clear();
        if (failed_ || n > remaining()) {
            fail("string length exceeds buffer");
            return;
        }
        s.assign(bytes_.substr(pos_, n));
        pos_ += n;
    }

    /** Enum byte constrained to [0, @p max]. */
    template <class Enum>
    void enumByte(Enum &v, Enum max)
    {
        const std::uint8_t b = u8();
        if (b > static_cast<std::uint8_t>(max))
            fail("enum value out of range");
        v = static_cast<Enum>(b);
    }

    /**
     * Count-prefixed sequence whose elements occupy at least
     * @p min_elem_bytes each — a corrupt count larger than the
     * remaining bytes could ever hold is rejected before any element
     * decodes. Elements are decoded in place by @p element_walk.
     */
    template <class Vec, class Walk>
    void seq(Vec &elems, std::size_t min_elem_bytes, Walk &&element_walk)
    {
        const std::uint32_t n = u32();
        if (!failed_ && n > remaining() / min_elem_bytes)
            fail("sequence count exceeds buffer");
        if (failed_)
            return;
        elems.reserve(n);
        for (std::uint32_t i = 0; i < n && !failed_; ++i)
            element_walk(elems.emplace_back());
    }

  private:
    /** One little-endian word; zero after a short read. */
    template <class Word>
    Word word(const char *short_read)
    {
        if (failed_ || remaining() < sizeof(Word)) {
            fail(short_read);
            return 0;
        }
        Word v;
        std::memcpy(&v, bytes_.data() + pos_, sizeof v);
        pos_ += sizeof v;
        if constexpr (sizeof v == 1)
            return v;
        else
            return littleEndian(v);
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
};

// ---------------------------------------------------------------------
// The wire format: one walk per persisted structure, visiting its
// fields in wire order. walk(ByteWriter &, const T &) encodes and
// walk(ByteReader &, T &) decodes, so the two directions cannot drift.
// Minimum element sizes passed to seq() cap decoded counts.
// ---------------------------------------------------------------------

/** T is S or const S: the walk over S serves both directions. */
template <class T, class S>
concept MaybeConst = std::same_as<std::remove_const_t<T>, S>;

/** Count-prefixed sequence of structures, each through its walk. */
template <class Io, class Vec>
void
walkSeq(Io &io, Vec &elems, std::size_t min_elem_bytes)
{
    io.seq(elems, min_elem_bytes, [&io](auto &e) { walk(io, e); });
}

template <class Io, class Vec>
void
walkNodes(Io &io, Vec &nodes)
{
    io.seq(nodes, 4, [&io](auto &n) { io.i32(n); });
}

template <class Io, class Vec>
void
walkStrings(Io &io, Vec &strings)
{
    io.seq(strings, 4, [&io](auto &s) { io.str(s); });
}

/**
 * An unordered map persisted as a list sorted by node id, so equal
 * maps encode to identical bytes; @p value_walk walks one mapped value.
 */
template <class Io, class Map, class ValueWalk>
void
walkSortedMap(Io &io, Map &map, std::size_t min_elem_bytes,
              ValueWalk &&value_walk)
{
    std::vector<std::pair<NodeId, typename Map::mapped_type>> sorted;
    if constexpr (!Io::kDecoding) {
        sorted.assign(map.begin(), map.end());
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
    }
    io.seq(sorted, min_elem_bytes, [&](auto &entry) {
        io.i32(entry.first);
        value_walk(entry.second);
    });
    if constexpr (Io::kDecoding) {
        for (const auto &[node, value] : sorted)
            map[node] = value;
    }
}

template <class Io, MaybeConst<Cluster> T>
void
walk(Io &io, T &c)
{
    walkNodes(io, c.nodes);
    walkNodes(io, c.inputs);
    walkNodes(io, c.outputs);
}

template <class Io, MaybeConst<LaunchDims> T>
void
walk(Io &io, T &launch)
{
    io.i64(launch.grid);
    io.i32(launch.block);
}

template <class Io, MaybeConst<OpPartition> T>
void
walk(Io &io, T &p)
{
    walk(io, p.launch);
    io.i64(p.rows_per_block);
    io.i64(p.tasks_per_block);
}

template <class Io, MaybeConst<AffineIndex> T>
void
walk(Io &io, T &ix)
{
    io.i64(ix.offset);
    io.i64(ix.coeff_block);
    io.i64(ix.coeff_task);
    io.i64(ix.coeff_iter);
    io.i64(ix.coeff_thread);
    io.i64(ix.num_blocks);
    io.i64(ix.num_tasks);
    io.i64(ix.num_iters);
    io.i64(ix.num_threads);
}

template <class Io, MaybeConst<OpAccess> T>
void
walk(Io &io, T &a)
{
    io.i32(a.node);
    io.i32(a.op_index);
    io.enumByte(a.kind, AccessKind::Write);
    io.enumByte(a.space, AccessSpace::Shared);
    io.str(a.buffer);
    io.i64(a.elem_bytes);
    io.i64(a.extent);
    walk(io, a.index);
    io.i64(a.guard);
    io.i64(a.warp_stride);
    io.f64(a.repeat);
    io.boolean(a.counts_traffic);
}

template <class Io, MaybeConst<LinExpr> T>
void
walk(Io &io, T &e)
{
    io.i64(e.c0);
    io.seq(e.terms, 12, [&io](auto &term) {
        io.i32(term.first);
        io.i64(term.second);
    });
}

template <class Io, MaybeConst<ShapeDim> T>
void
walk(Io &io, T &d)
{
    io.str(d.name);
    io.i64(d.value);
    io.i64(d.lo);
    io.i64(d.hi);
    io.i64(d.divisor);
}

template <class Io, MaybeConst<ShapeCertificate> T>
void
walk(Io &io, T &cert)
{
    io.enumByte(cert.verdict, ShapeCertificate::Verdict::Refuted);
    walkSeq(io, cert.dims, 4);
    walkStrings(io, cert.assumptions);
    io.i32(cert.obligations_proven);
    io.i32(cert.obligations_fallback);
}

template <class Io, MaybeConst<ScheduledOp> T>
void
walk(Io &io, T &op)
{
    io.i32(op.node);
    io.f64(op.recompute_factor);
    io.enumByte(op.out_space, BufferSpace::Output);
    walk(io, op.partition);
}

template <class Io, MaybeConst<KernelInput> T>
void
walk(Io &io, T &in)
{
    io.i32(in.node);
    io.f64(in.load_factor);
}

template <class Io, MaybeConst<BarrierPoint> T>
void
walk(Io &io, T &b)
{
    io.i32(b.after_op);
    io.enumByte(b.scope, BarrierScope::Device);
    io.i64(b.trip_count);
}

template <class Io, MaybeConst<SharedSlot> T>
void
walk(Io &io, T &s)
{
    io.i32(s.node);
    io.i64(s.offset_bytes);
    io.i64(s.size_bytes);
}

template <class Io, MaybeConst<SymbolicAccess> T>
void
walk(Io &io, T &s)
{
    io.i32(s.access_index);
    walk(io, s.extent);
    walk(io, s.offset);
    walk(io, s.value_extent);
}

template <class Io, MaybeConst<KernelPlan> T>
void
walk(Io &io, T &plan)
{
    io.str(plan.name);
    walkSeq(io, plan.ops, 4);
    walkSeq(io, plan.inputs, 4);
    walkNodes(io, plan.outputs);
    walk(io, plan.launch);
    io.i32(plan.regs_per_thread);
    io.i64(plan.smem_per_block);
    io.i32(plan.num_block_barriers);
    io.i32(plan.num_global_barriers);
    walkSeq(io, plan.barriers, 4);
    walkSeq(io, plan.shared_slots, 4);
    walkSeq(io, plan.accesses, 8);
    walkSeq(io, plan.sym_accesses, 8);
    walk(io, plan.certificate);
    io.f64(plan.atomic_operations);
    io.f64(plan.read_coalescing);
    io.f64(plan.write_coalescing);
    io.f64(plan.extra_launch_overhead_us);
    io.f64(plan.extra_bytes_read);
    io.str(plan.cuda_source);
}

template <class Io, MaybeConst<CompiledCluster> T>
void
walk(Io &io, T &cc)
{
    walkSeq(io, cc.kernels, 4);
    io.i32(cc.num_memcpy);
    io.f64(cc.memcpy_bytes);
    io.i64(cc.global_scratch_bytes);
}

template <class Io, MaybeConst<Diagnostic> T>
void
walk(Io &io, T &d)
{
    io.str(d.code);
    io.enumByte(d.severity, Severity::Error);
    io.str(d.kernel);
    io.str(d.message);
    io.i32(d.node);
    walkStrings(io, d.provenance);
}

template <class Io, MaybeConst<DiagnosticEngine> T>
void
walk(Io &io, T &engine)
{
    if constexpr (Io::kDecoding) {
        // Findings re-enter through add(), which panics on a code this
        // build does not register: reject such an artifact instead (it
        // came from a different build).
        std::vector<Diagnostic> diagnostics;
        io.seq(diagnostics, 8, [&io](Diagnostic &d) {
            walk(io, d);
            if (!io.failed() && !findDiagnosticCode(d.code))
                io.fail(strCat("unknown diagnostic code '", d.code, "'"));
        });
        if (!io.failed()) {
            for (Diagnostic &d : diagnostics)
                engine.add(std::move(d));
        }
    } else {
        walkSeq(io, engine.diagnostics(), 8);
    }
}

template <class Io, MaybeConst<ClusterDegradation> T>
void
walk(Io &io, T &c)
{
    io.enumByte(c.level, LadderLevel::KernelPerOp);
    io.i32(c.retries);
    walkStrings(io, c.causes);
}

template <class Io, MaybeConst<DegradationReport> T>
void
walk(Io &io, T &report)
{
    walkSeq(io, report.clusters, 4);
    io.boolean(report.clustering_fallback);
    io.boolean(report.serial_fallback);
    io.boolean(report.cache_bypassed);
    io.i32(report.session_retries);
}

template <class Io, MaybeConst<CompilePassTimings> T>
void
walk(Io &io, T &t)
{
    // Only the compile-pass spans persist; the artifact_* fields are
    // load-time measurements the warm path fills fresh.
    io.f64(t.clustering_ms);
    io.f64(t.remote_stitch_ms);
    io.f64(t.backend_compile_ms);
    io.f64(t.analysis_ms);
    io.f64(t.autotune_ms);
    io.f64(t.parallel_section_ms);
    io.f64(t.scheduling_ms);
}

template <class Io, MaybeConst<MappingOverride> T>
void
walk(Io &io, T &m)
{
    io.i32(m.block);
    io.i32(m.split);
}

template <class Io, MaybeConst<TuningOverrides> T>
void
walk(Io &io, T &ov)
{
    walkSortedMap(io, ov.schemes, 5, [&io](auto &scheme) {
        io.enumByte(scheme, StitchScheme::Global);
    });
    walkSortedMap(io, ov.mappings, 12, [&io](auto &m) { walk(io, m); });
}

template <class Io, MaybeConst<ClusterTuningResult> T>
void
walk(Io &io, T &r)
{
    io.u64(r.fingerprint);
    io.f64(r.heuristic_cost_us);
    io.f64(r.tuned_cost_us);
    io.i32(r.candidates_evaluated);
    io.i32(r.candidates_rejected);
    io.boolean(r.improved);
    io.boolean(r.db_hit);
    io.f64(r.search_ms);
    walk(io, r.decision);
}

template <class Io, MaybeConst<TuningReport> T>
void
walk(Io &io, T &report)
{
    io.boolean(report.enabled);
    walkSeq(io, report.clusters, 8);
}

template <class Io, MaybeConst<JitCacheEntry> T>
void
walk(Io &io, T &entry)
{
    walkSeq(io, entry.clusters, 4);
    walkSeq(io, entry.compiled, 4);
    walkSeq(io, entry.cluster_diagnostics, 4);
    walk(io, entry.degradation);
    walk(io, entry.timings);
    walk(io, entry.tuning);
}

template <class Io, MaybeConst<TuningDbEntry> T>
void
walk(Io &io, T &e)
{
    io.str(e.key);
    io.f64(e.heuristic_cost_us);
    io.f64(e.tuned_cost_us);
    io.boolean(e.improved);
    walk(io, e.decision);
}

/** A tuning DB file's payload: its entries in key order. */
template <class Io, MaybeConst<std::vector<TuningDbEntry>> T>
void
walk(Io &io, T &entries)
{
    walkSeq(io, entries, 29);
}

// ---------------------------------------------------------------------
// Envelope framing.
// ---------------------------------------------------------------------

/** "ASTC" read as a little-endian u32. */
constexpr std::uint32_t kMagic = 0x43545341;

/** The envelope fields in front of the header checksum. */
struct EnvelopeHeader
{
    std::uint32_t magic = kMagic;
    std::uint32_t version = kArtifactFormatVersion;
    std::string key;
    std::uint64_t payload_size = 0;
    std::uint64_t payload_checksum = 0;
};

template <class Io, MaybeConst<EnvelopeHeader> T>
void
walk(Io &io, T &h)
{
    io.u32(h.magic);
    io.u32(h.version);
    io.str(h.key);
    io.u64(h.payload_size);
    io.u64(h.payload_checksum);
}

/** Bytes the walk over @p value writes (its counting pass). */
template <class T>
std::size_t
encodedSize(const T &value)
{
    ByteSizer sizer;
    walk(sizer, value);
    return sizer.size();
}

/** Encode @p value into the @p size bytes at @p at, which
 * encodedSize(value) counted. */
template <class T>
void
encodeInto(char *at, std::size_t size, const T &value)
{
    ByteWriter writer(at, at + size);
    walk(writer, value);
    panicIf(!writer.full(),
            "artifact encoding fell short of its counting pass");
}

/**
 * The envelope around a payload of @p payload_size bytes that
 * @p write_payload writes at the pointer it is given, in one buffer:
 * the header's room is reserved in front and filled once the payload's
 * checksum is known, so the payload is written once and never copied.
 */
template <class WritePayload>
std::string
frameArtifact(const std::string &key, std::size_t payload_size,
              WritePayload &&write_payload)
{
    EnvelopeHeader fields;
    fields.key = key;
    fields.payload_size = payload_size;
    const std::size_t header_size =
        encodedSize(std::as_const(fields)) + sizeof(std::uint64_t);
    std::string bytes(header_size + payload_size, '\0');
    char *const payload = bytes.data() + header_size;
    write_payload(payload);
    fields.payload_checksum = hash64(payload, payload_size);

    ByteWriter header(bytes.data(), payload);
    walk(header, std::as_const(fields));
    header.u64(hash64(bytes.data(), header_size - sizeof(std::uint64_t)));
    return bytes;
}

/** The envelope under @p key around the encoding of @p value. */
template <class T>
std::string
frameEncoding(const std::string &key, const T &value)
{
    const std::size_t size = encodedSize(value);
    return frameArtifact(key, size, [&](char *payload) {
        encodeInto(payload, size, value);
    });
}

/** Decode all of @p payload into @p value; see deserializePlanPayload. */
template <class T>
bool
decodeAll(std::string_view payload, T *value, std::string *error)
{
    *value = T{};
    ByteReader r(payload);
    walk(r, *value);
    if (!r.failed() && !r.atEnd())
        r.fail("trailing bytes after payload");
    if (r.failed()) {
        if (error)
            *error = r.error();
        return false;
    }
    return true;
}

} // namespace

std::string
serializePlanPayload(const JitCacheEntry &entry)
{
    std::string payload(encodedSize(entry), '\0');
    encodeInto(payload.data(), payload.size(), entry);
    return payload;
}

std::string
serializeArtifact(const std::string &key, const JitCacheEntry &entry)
{
    return frameEncoding(key, entry);
}

bool
deserializePlanPayload(std::string_view payload, JitCacheEntry *entry,
                       std::string *error)
{
    return decodeAll(payload, entry, error);
}

bool
deserializePlanPayload(const std::string &payload, JitCacheEntry *entry,
                       std::string *error)
{
    return deserializePlanPayload(std::string_view(payload), entry, error);
}

std::string
serializeTuningDb(const std::string &key,
                  const std::vector<TuningDbEntry> &entries)
{
    return frameEncoding(key, entries);
}

bool
deserializeTuningDb(const std::string &bytes, const std::string &key,
                    std::vector<TuningDbEntry> *entries, std::string *error)
{
    std::string_view payload;
    const ArtifactStatus status = unwrapArtifact(bytes, key, &payload);
    if (status != ArtifactStatus::Ok) {
        *error = artifactStatusName(status);
        return false;
    }
    return decodeAll(payload, entries, error);
}

std::string
artifactStatusName(ArtifactStatus status)
{
    switch (status) {
    case ArtifactStatus::Ok:
        return "ok";
    case ArtifactStatus::Truncated:
        return "truncated";
    case ArtifactStatus::BadMagic:
        return "bad-magic";
    case ArtifactStatus::BadHeaderChecksum:
        return "bad-header-checksum";
    case ArtifactStatus::BadPayloadChecksum:
        return "bad-payload-checksum";
    case ArtifactStatus::KeyMismatch:
        return "key-mismatch";
    case ArtifactStatus::VersionSkew:
        return "version-skew";
    }
    return "unknown";
}

std::string
wrapArtifact(const std::string &key, const std::string &payload)
{
    return frameArtifact(key, payload.size(), [&](char *at) {
        std::memcpy(at, payload.data(), payload.size());
    });
}

ArtifactStatus
inspectArtifact(const std::string &bytes, std::string *key,
                std::string *payload)
{
    ByteReader r(bytes);
    EnvelopeHeader header;
    walk(r, header);
    // A key that did not parse reads back empty.
    *key = header.magic == kMagic ? header.key : std::string();
    return unwrapArtifact(bytes, *key, payload);
}

ArtifactStatus
unwrapArtifact(const std::string &bytes, const std::string &expected_key,
               std::string_view *payload)
{
    *payload = {};
    ByteReader r(bytes);
    EnvelopeHeader header;
    walk(r, header);
    const std::size_t header_end = bytes.size() - r.remaining();
    const std::uint64_t header_checksum = r.u64();
    if (bytes.size() < sizeof kMagic)
        return ArtifactStatus::Truncated;
    if (header.magic != kMagic)
        return ArtifactStatus::BadMagic;
    if (r.failed()) {
        // A header we cannot even parse: either rot (same format) or a
        // layout from another format version.
        return header.version != kArtifactFormatVersion
                   ? ArtifactStatus::VersionSkew
                   : ArtifactStatus::Truncated;
    }
    if (hash64(bytes.data(), header_end) != header_checksum) {
        return header.version != kArtifactFormatVersion
                   ? ArtifactStatus::VersionSkew
                   : ArtifactStatus::BadHeaderChecksum;
    }
    // Header is intact — its claims are now trustworthy.
    if (header.version != kArtifactFormatVersion)
        return ArtifactStatus::VersionSkew;
    if (header.key != expected_key)
        return ArtifactStatus::KeyMismatch;
    if (r.remaining() != header.payload_size)
        return ArtifactStatus::Truncated;
    const std::size_t payload_at = bytes.size() - r.remaining();
    if (hash64(bytes.data() + payload_at, header.payload_size) !=
        header.payload_checksum) {
        return ArtifactStatus::BadPayloadChecksum;
    }
    *payload = std::string_view(bytes).substr(payload_at);
    return ArtifactStatus::Ok;
}

ArtifactStatus
unwrapArtifact(const std::string &bytes, const std::string &expected_key,
               std::string *payload)
{
    std::string_view view;
    const ArtifactStatus status = unwrapArtifact(bytes, expected_key, &view);
    payload->assign(view);
    return status;
}

} // namespace astitch
