#pragma once

/**
 * @file
 * Append-only, crash-consistent run-record ledger ("rsin.ledger.v1")
 * backing resumable campaign runs.
 *
 * Layout of a ledger directory:
 *
 *   manifest.json            campaign identity: schema tag + the
 *                            canonical spec string.  Written once,
 *                            atomically; a resume against a different
 *                            spec is refused instead of silently
 *                            mixing incompatible cells.
 *   seg-SSSS-NNNN.jsonl      sealed segments: complete, never touched
 *                            again (SSSS = shard index, NNNN = segment
 *                            sequence, both zero-padded so the sorted
 *                            directory listing is replay order).
 *   seg-SSSS-NNNN.open       the segment currently being appended to.
 *                            A crash can tear at most its final line.
 *
 * Each segment line is one record:
 *
 *   {"key":"<cell key>","crc32":"xxxxxxxx","record":{...}}
 *
 * The "record" member is written LAST so the crc can be computed over
 * the raw byte substring that follows `"record":` -- replay verifies
 * it without re-serializing.  A line that is incomplete, malformed, or
 * crc-mismatched is a *torn* record: replay drops it (and everything
 * after it in that segment) and reports the cell as needing a re-run.
 *
 * Durability protocol:
 *  - every append is flushed line-by-line, so a SIGKILL loses at most
 *    the line being written (detected via crc on replay);
 *  - segments are sealed by rename(2) to .jsonl every sealEvery
 *    records and on close() -- rename is atomic, so a sealed segment
 *    is complete by construction;
 *  - recover() compacts a crashed .open segment: valid lines are
 *    rewritten into a sealed segment (atomically), the tail is
 *    dropped, and the stray file removed.
 *
 * Replay dedups by cell key with last-record-wins, which is what makes
 * an interrupted-and-resumed campaign's merged record set bit-identical
 * to an uninterrupted run: cells re-run after a crash were re-seeded
 * deterministically, so the replacement bytes equal the lost ones.
 */

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/run_record.hpp"

namespace rsin {
namespace obs {

/** Schema tag pinned in the manifest and checked on open. */
inline constexpr const char *kLedgerSchema = "rsin.ledger.v1";

/** One replayed ledger entry: cell key + the record's exact bytes. */
struct LedgerEntry
{
    std::string key;    ///< campaign cell key (unique per cell)
    std::string json;   ///< raw bytes of the "record" object
    RunRecord record;   ///< parsed form of @p json
};

/** What replay() found in a ledger directory. */
struct LedgerReplay
{
    /** Deduped entries, last record per key wins, key-sorted. */
    std::map<std::string, LedgerEntry> entries;
    std::size_t linesRead = 0;      ///< valid record lines replayed
    std::size_t tornRecords = 0;    ///< crc/parse failures dropped
    std::size_t sealedSegments = 0; ///< .jsonl segments replayed
    std::size_t openSegments = 0;   ///< crashed .open segments found
};

/**
 * Append-only writer for one shard of a campaign ledger.  Thread-safe:
 * worker threads of one process append through a mutex; distinct
 * processes (--shard-index) write distinct seg-SSSS-* families and
 * never contend.
 */
class LedgerWriter
{
  public:
    /**
     * Open a writer in @p dir (created if absent) for @p shardIndex.
     * Writes manifest.json pinning @p spec on first use; on a resume,
     * refuses (FatalError) when the existing manifest pins a different
     * spec.  Crashed .open segments of this shard are recovered
     * (compacted into sealed segments) before the first append.
     *
     * @param sealEvery seal the active segment after this many
     *        records (bounds how much a crash leaves in .open form).
     */
    LedgerWriter(std::string dir, std::size_t shardIndex,
                 const std::string &spec, std::size_t sealEvery = 64);

    /** Seals the active segment (best effort -- destructors are the
     *  crash path too; an exception here is swallowed). */
    ~LedgerWriter();

    LedgerWriter(const LedgerWriter &) = delete;
    LedgerWriter &operator=(const LedgerWriter &) = delete;

    /**
     * Append one record under @p key and flush it to disk before
     * returning.  Returns the total records appended by this writer so
     * far (the --kill-after-cells test hook counts these).
     */
    std::size_t append(const std::string &key, const RunRecord &record);

    /** Seal the active segment; further appends start a new one. */
    void seal();

    /** Seal and stop; idempotent. */
    void close();

    const std::string &dir() const { return dir_; }

  private:
    void openSegment();
    void sealLocked();

    std::string dir_;
    std::size_t shardIndex_;
    std::size_t sealEvery_;
    std::mutex mutex_;
    // rsin-lint: allow(R11): append-only segment protocol -- open/append/flush are serialized behind mutex_ and the segment is sealed by atomic rename; writeFileAtomic (whole-file-then-rename) cannot express incremental crash-consistent append
    std::ofstream out_;
    std::string openPath_;   ///< active .open segment ("" when none)
    std::string sealedPath_; ///< .jsonl name the active segment seals to
    std::size_t segmentSeq_ = 0;
    std::size_t recordsInSegment_ = 0;
    std::size_t recordsAppended_ = 0;
    bool closed_ = false;
};

/**
 * Serialize one ledger line (without trailing newline) -- exposed so
 * tests can craft torn/corrupt lines byte-compatibly with the writer.
 */
std::string formatLedgerLine(const std::string &key,
                             const RunRecord &record);

/**
 * Parse one ledger line; returns false (leaving @p out untouched) when
 * the line is torn: incomplete, malformed JSON, or crc mismatch.
 */
bool parseLedgerLine(const std::string &line, LedgerEntry &out);

/**
 * Replay every segment in @p dir: sealed segments first, then crashed
 * .open segments (their valid prefix counts -- those records are real).
 * Verifies the manifest against @p spec when one exists (FatalError on
 * mismatch; pass an empty spec to skip the check, e.g. for inspection
 * tools).  Missing directory replays as empty.
 */
LedgerReplay replayLedger(const std::string &dir,
                          const std::string &spec);

/**
 * Compact every crashed .open segment in @p dir into a sealed segment
 * holding its valid prefix (torn tail dropped).  Returns the number of
 * segments recovered.  Called by LedgerWriter on open for its own
 * shard; exposed for the single coordinating process of a resumed
 * multi-process campaign to clean all shards up front.
 */
std::size_t recoverLedger(const std::string &dir);

} // namespace obs
} // namespace rsin
