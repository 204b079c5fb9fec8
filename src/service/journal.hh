/**
 * @file
 * Journal: the durable append-only record log behind `picosim_serve
 * --journal DIR`. Every record is one framed line pair:
 *
 *     PJ1 <payload-bytes> <crc32-hex>\n
 *     <payload>\n
 *
 * where the payload is a one-line flat JSON object (the same dialect
 * wire.hh speaks) and the CRC-32 (IEEE, poly 0xEDB88320) covers the
 * payload bytes only. The format is deliberately line-oriented so a
 * torn tail — the half-written record a `kill -9` leaves behind — is
 * detectable: readAll() replays records until the first frame that is
 * truncated or fails its checksum, warns loudly on @p diag, and drops
 * everything from that point on. Records before the tear are good by
 * construction: append() writes the full frame with one O_APPEND
 * write(2) and fsyncs before returning.
 *
 * Compaction (rewrite()) replaces the log atomically: the survivors are
 * written to `<path>.tmp`, fsynced, and renamed over the original, so a
 * crash during compaction leaves either the old or the new journal —
 * never a mix.
 *
 * The build stamp ties a journal to the binary that wrote it: recovery
 * writes buildStamp() as the first record of every compaction, and a
 * later start under a different stamp refuses to finish a job that
 * already holds rows from the old build (see JobManager::recover).
 */

#ifndef PICOSIM_SERVICE_JOURNAL_HH
#define PICOSIM_SERVICE_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace picosim::svc
{

/** CRC-32 (IEEE 802.3, reflected poly 0xEDB88320) of @p data. */
std::uint32_t crc32(std::string_view data);

/** The running executable's GNU build-id in lowercase hex (every binary
 *  that links picosim is linked with --build-id); "" when it has none.
 *  Read once from the loaded program headers, then cached. */
const std::string &buildStamp();

class Journal
{
  public:
    /** The journal file inside @p dir (created if needed). */
    static std::string filePath(const std::string &dir);

    /**
     * Open @p dir's journal for appending, creating the directory and
     * the file as needed. Throws std::runtime_error on I/O failure.
     */
    explicit Journal(const std::string &dir);
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Frame, append, and fsync one record. Thread-safe (internal
     * mutex); records from different threads land whole, in some
     * serial order. Throws std::runtime_error when the write or sync
     * fails — durability is the whole point, so failure is loud.
     */
    void append(const std::string &payload);

    const std::string &path() const { return path_; }

    /**
     * Replay every intact record of @p dir's journal, in order. A
     * missing file yields an empty vector (first boot). The first
     * torn or CRC-corrupt frame stops the replay: a warning naming
     * the byte offset and the reason goes to @p diag (when non-null)
     * and the remainder of the file is discarded.
     */
    static std::vector<std::string> readAll(const std::string &dir,
                                            std::ostream *diag);

    /**
     * Atomically replace @p dir's journal with @p payloads (tmp file +
     * fsync + rename). Throws std::runtime_error on I/O failure.
     */
    static void rewrite(const std::string &dir,
                        const std::vector<std::string> &payloads);

  private:
    std::mutex lock_;
    std::string path_;
    int fd_ = -1;
};

} // namespace picosim::svc

#endif // PICOSIM_SERVICE_JOURNAL_HH
