/** A minimal JSON validator (objects, arrays, strings, numbers,
 *  true/false/null): enough for tests to prove emitted telemetry is
 *  well-formed without pulling in a JSON library. */
#ifndef NNSMITH_TESTS_JSON_CHECKER_H
#define NNSMITH_TESTS_JSON_CHECKER_H

#include <cstring>
#include <string>

namespace nnsmith::test {

struct JsonChecker {
    const std::string& text;
    size_t pos = 0;

    bool fail() { return false; }

    void ws()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool value()
    {
        ws();
        if (pos >= text.size())
            return fail();
        const char c = text[pos];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool literal(const char* word)
    {
        const size_t n = std::strlen(word);
        if (text.compare(pos, n, word) != 0)
            return fail();
        pos += n;
        return true;
    }

    bool string()
    {
        ++pos; // opening quote
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') {
                ++pos;
                if (pos >= text.size())
                    return fail();
            }
            ++pos;
        }
        if (pos >= text.size())
            return fail();
        ++pos; // closing quote
        return true;
    }

    bool number()
    {
        const size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               ((text[pos] >= '0' && text[pos] <= '9') ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        return pos > start;
    }

    bool object()
    {
        ++pos; // '{'
        ws();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            ws();
            if (pos >= text.size() || text[pos] != '"' || !string())
                return fail();
            ws();
            if (pos >= text.size() || text[pos] != ':')
                return fail();
            ++pos;
            if (!value())
                return fail();
            ws();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        if (pos >= text.size() || text[pos] != '}')
            return fail();
        ++pos;
        return true;
    }

    bool array()
    {
        ++pos; // '['
        ws();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            if (!value())
                return fail();
            ws();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        if (pos >= text.size() || text[pos] != ']')
            return fail();
        ++pos;
        return true;
    }
};

inline bool
isValidJson(const std::string& text)
{
    JsonChecker checker{text};
    if (!checker.value())
        return false;
    checker.ws();
    return checker.pos == checker.text.size();
}

} // namespace nnsmith::test

#endif // NNSMITH_TESTS_JSON_CHECKER_H
