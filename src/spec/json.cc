#include "spec/json.hh"

#include <cstdio>

#include "spec/workload_registry.hh"

namespace picosim::spec
{

std::string
jsonString(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

namespace
{

/** Cursor over flat JSON text. Throws SpecError with position info. */
struct JsonCursor
{
    const std::string &text;
    std::size_t pos = 0;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw SpecError("malformed JSON at byte " + std::to_string(pos) +
                        ": " + what);
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            const char e = text[pos++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos + 4 > text.size())
                    fail("truncated \\u escape");
                unsigned v = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    v <<= 4;
                    if (h >= '0' && h <= '9') v |= h - '0';
                    else if (h >= 'a' && h <= 'f') v |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F') v |= h - 'A' + 10;
                    else fail("bad \\u escape digit");
                }
                if (v > 0xff)
                    fail("non-ASCII \\u escape unsupported");
                out += static_cast<char>(v);
                break;
            }
            default: fail("unknown escape");
            }
        }
    }

    /** Number / true / false / null, returned verbatim. */
    std::string
    parseScalar()
    {
        skipWs();
        const std::size_t start = pos;
        while (pos < text.size() && text[pos] != ',' &&
               text[pos] != '}' && text[pos] != ' ' &&
               text[pos] != '\t' && text[pos] != '\n' &&
               text[pos] != '\r')
            ++pos;
        if (pos == start)
            fail("expected a value");
        return text.substr(start, pos - start);
    }
};

} // namespace

std::map<std::string, std::string>
parseFlatJson(const std::string &text)
{
    JsonCursor cur{text};
    std::map<std::string, std::string> out;
    cur.expect('{');
    if (cur.peek() != '}') {
        while (true) {
            const std::string key = cur.parseString();
            cur.expect(':');
            out[key] =
                cur.peek() == '"' ? cur.parseString() : cur.parseScalar();
            if (cur.peek() == '}')
                break;
            cur.expect(',');
        }
    }
    cur.expect('}');
    cur.skipWs();
    if (cur.pos != text.size())
        cur.fail("trailing characters after '}'");
    return out;
}

std::string
parseJsonString(const std::string &text)
{
    JsonCursor cur{text};
    return cur.parseString();
}

} // namespace picosim::spec
