#include "service/journal.hh"

#include <elf.h>
#include <fcntl.h>
#include <link.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace picosim::svc
{

namespace
{

constexpr const char *kFileName = "jobs.journal";

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

[[noreturn]] void
ioFail(const std::string &what, const std::string &path)
{
    throw std::runtime_error("journal: " + what + " '" + path +
                             "': " + std::strerror(errno));
}

/** The complete on-disk frame of one record. */
std::string
frame(const std::string &payload)
{
    char head[48];
    std::snprintf(head, sizeof(head), "PJ1 %zu %08x\n", payload.size(),
                  crc32(payload));
    std::string out = head;
    out += payload;
    out += '\n';
    return out;
}

bool
writeAll(int fd, const std::string &data)
{
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + done, data.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/** dl_iterate_phdr callback: append the build-id of the first object
 *  reported, which is the executable itself, as hex to @p out, then
 *  stop the iteration. */
int
appendBuildId(dl_phdr_info *info, std::size_t, void *out)
{
    std::string &hex = *static_cast<std::string *>(out);
    for (ElfW(Half) i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) &ph = info->dlpi_phdr[i];
        if (ph.p_type != PT_NOTE)
            continue;
        const std::size_t align = ph.p_align == 8 ? 8 : 4;
        const auto pad = [align](std::size_t n) {
            return (n + align - 1) & ~(align - 1);
        };
        const char *p =
            reinterpret_cast<const char *>(info->dlpi_addr + ph.p_vaddr);
        const char *const end = p + ph.p_memsz;
        while (p + sizeof(ElfW(Nhdr)) <= end) {
            const auto *note = reinterpret_cast<const ElfW(Nhdr) *>(p);
            const char *name = p + sizeof(ElfW(Nhdr));
            const auto *desc = reinterpret_cast<const unsigned char *>(
                name + pad(note->n_namesz));
            if (note->n_type == NT_GNU_BUILD_ID && note->n_namesz == 4 &&
                std::memcmp(name, "GNU", 4) == 0) {
                static constexpr char kDigits[] = "0123456789abcdef";
                for (std::size_t k = 0; k < note->n_descsz; ++k) {
                    hex += kDigits[desc[k] >> 4];
                    hex += kDigits[desc[k] & 0xF];
                }
                return 1;
            }
            p = reinterpret_cast<const char *>(desc) + pad(note->n_descsz);
        }
    }
    return 1;
}

} // namespace

const std::string &
buildStamp()
{
    static const std::string stamp = [] {
        std::string hex;
        dl_iterate_phdr(appendBuildId, &hex);
        return hex;
    }();
    return stamp;
}

std::uint32_t
crc32(std::string_view data)
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    std::uint32_t c = 0xFFFFFFFFu;
    for (const char ch : data)
        c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::string
Journal::filePath(const std::string &dir)
{
    return dir + "/" + kFileName;
}

Journal::Journal(const std::string &dir) : path_(filePath(dir))
{
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        ioFail("mkdir", dir);
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        ioFail("open", path_);
}

Journal::~Journal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
Journal::append(const std::string &payload)
{
    const std::string rec = frame(payload);
    const std::lock_guard<std::mutex> lk(lock_);
    if (!writeAll(fd_, rec))
        ioFail("write", path_);
    if (::fsync(fd_) != 0)
        ioFail("fsync", path_);
}

std::vector<std::string>
Journal::readAll(const std::string &dir, std::ostream *diag)
{
    std::vector<std::string> out;
    std::ifstream in(filePath(dir), std::ios::binary);
    if (!in.is_open())
        return out; // first boot: nothing journaled yet

    std::string text{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    std::size_t pos = 0;
    const auto tear = [&](const char *why) {
        if (diag != nullptr) {
            *diag << "picosim journal: " << why << " at byte " << pos
                  << " of " << filePath(dir) << "; keeping the "
                  << out.size() << " intact record(s) before it and "
                  << "discarding the rest\n";
        }
        return out;
    };

    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return tear("truncated frame header");
        const std::string head = text.substr(pos, nl - pos);
        std::size_t len = 0;
        unsigned long want = 0;
        {
            char tag[8] = {};
            unsigned long long n = 0;
            if (std::sscanf(head.c_str(), "%3s %llu %lx", tag, &n,
                            &want) != 3 ||
                std::string(tag) != "PJ1")
                return tear("unrecognized frame header");
            len = static_cast<std::size_t>(n);
        }
        const std::size_t body = nl + 1;
        if (body + len + 1 > text.size())
            return tear("torn record (payload shorter than header says)");
        if (text[body + len] != '\n')
            return tear("torn record (missing payload terminator)");
        const std::string payload = text.substr(body, len);
        if (crc32(payload) != static_cast<std::uint32_t>(want))
            return tear("CRC mismatch (corrupt record)");
        out.push_back(payload);
        pos = body + len + 1;
    }
    return out;
}

void
Journal::rewrite(const std::string &dir,
                 const std::vector<std::string> &payloads)
{
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        ioFail("mkdir", dir);
    const std::string path = filePath(dir);
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        ioFail("open", tmp);

    std::string all;
    for (const std::string &p : payloads)
        all += frame(p);
    const bool ok = writeAll(fd, all) && ::fsync(fd) == 0;
    ::close(fd);
    if (!ok)
        ioFail("write", tmp);
    if (::rename(tmp.c_str(), path.c_str()) != 0)
        ioFail("rename", tmp);
}

} // namespace picosim::svc
