/**
 * @file
 * Wire format of the picosim service: a line-oriented text protocol
 * over a plain TCP socket (no external dependencies), with run results
 * carried as flat JSON objects.
 *
 * Verbs (client → server), one per line:
 *
 *   PING
 *   SUBMIT <nbytes> [timeout=<sec>] [tag=<tag>]   + <nbytes> spec text
 *   STATUS <id>
 *   RESULT <id>
 *   CANCEL <id>
 *   LIST
 *   SHUTDOWN
 *
 * Replies:
 *
 *   PING     → PONG
 *   SUBMIT   → OK <id> runs=<n> | ERR <json-string>
 *   STATUS   → OK <id> state=<state> done=<d> total=<t> tag=<json>
 *              error=<json> | ERR <json-string>
 *   RESULT   → ROW <idx> <json-object>… streamed as runs complete (in
 *              run order), then DONE <state> | ERR <json-string>
 *   CANCEL   → OK cancelled <id> | ERR <json-string>
 *   LIST     → JOB <id> state=<state> done=<d> total=<t> tag=<json>…,
 *              then END
 *   SHUTDOWN → OK bye (server drains and exits)
 *
 * Every free-form payload (error messages, tags) travels as a quoted
 * JSON string so replies stay one line regardless of content. Doubles
 * in result rows print as %.17g, which round-trips bit-exactly —
 * that keeps the client-side CLI report byte-identical to a local run.
 */

#ifndef PICOSIM_SERVICE_WIRE_HH
#define PICOSIM_SERVICE_WIRE_HH

#include <cstddef>
#include <string>

#include "runtime/runtime.hh"

namespace picosim::svc::wire
{

/** Every RunResult field as one flat JSON object (one line). */
std::string runResultJson(const rt::RunResult &res);

/** Inverse of runResultJson. Throws spec::SpecError on malformed input
 *  (unknown fields are ignored for forward compatibility). */
rt::RunResult runResultFromJson(const std::string &json);

// -- Minimal socket plumbing shared by server and client ----------------

/** Blocking TCP connect; -1 on failure (errno preserved). */
int connectTcp(const std::string &host, unsigned short port);

/** Write all of @p data; false on error/EOF. */
bool sendAll(int fd, const std::string &data);

/** Buffered line/byte reader over a socket fd (does not own the fd). */
class LineReader
{
  public:
    /** @p maxLine bounds how many bytes readLine() will buffer while
     *  hunting for '\n' (0 = unbounded, for trusted client-side use).
     *  The server passes a cap so a peer that streams garbage without a
     *  newline gets an `ERR` instead of growing the buffer forever. */
    explicit LineReader(int fd, std::size_t maxLine = 0)
        : fd_(fd), maxLine_(maxLine)
    {
    }

    /** Read up to '\n' (stripped, and a preceding '\r' too); false on
     *  EOF/error with nothing buffered, or when the line-length bound
     *  was exceeded (check overflowed() to tell the cases apart). */
    bool readLine(std::string &out);

    /** Read exactly @p n bytes; false on premature EOF. */
    bool readExact(std::size_t n, std::string &out);

    /** True once readLine() gave up because a line exceeded maxLine. */
    bool overflowed() const { return overflowed_; }

  private:
    bool fill(); // pull more bytes into buf_

    int fd_;
    std::size_t maxLine_;
    bool overflowed_ = false;
    std::string buf_;
};

} // namespace picosim::svc::wire

#endif // PICOSIM_SERVICE_WIRE_HH
