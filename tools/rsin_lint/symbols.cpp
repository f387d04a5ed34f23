#include "symbols.hpp"

#include <algorithm>
#include <cctype>
#include <set>

namespace rsin {
namespace lint {

namespace {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isControlKeyword(const std::string &name)
{
    static const std::set<std::string> kw{
        "if",       "for",      "while",    "switch",  "catch",
        "return",   "sizeof",   "alignof",  "decltype", "new",
        "delete",   "throw",    "co_await", "co_return", "assert",
        "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
        "alignas",  "noexcept", "defined",
    };
    return kw.count(name) > 0;
}

} // namespace

std::vector<FullTok>
tokenizeFull(const std::string &src)
{
    std::vector<FullTok> toks;
    std::size_t line = 1;
    std::size_t lineStart = 0; // byte offset of the current line start
    std::size_t i = 0;
    const std::size_t n = src.size();
    const auto colOf = [&](std::size_t at) { return at - lineStart + 1; };
    const auto bumpLine = [&](std::size_t at) {
        ++line;
        lineStart = at + 1;
    };
    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            bumpLine(i);
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Preprocessor directive: drop to end of line, honouring
        // backslash continuations (includes are the include_graph
        // pass's business, macros are out of scope for the index).
        if (c == '#') {
            bool firstOnLine = true;
            for (std::size_t k = lineStart; k < i; ++k)
                if (!std::isspace(static_cast<unsigned char>(src[k]))) {
                    firstOnLine = false;
                    break;
                }
            if (firstOnLine) {
                while (i < n) {
                    if (src[i] == '\\' && i + 1 < n &&
                        src[i + 1] == '\n') {
                        bumpLine(i + 1);
                        i += 2;
                        continue;
                    }
                    if (src[i] == '\n')
                        break;
                    ++i;
                }
                continue;
            }
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            while (i < n && src[i] != '\n')
                ++i;
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            i += 2;
            while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
                if (src[i] == '\n')
                    bumpLine(i);
                ++i;
            }
            i = i + 1 < n ? i + 2 : n;
            continue;
        }
        if (c == '"' && i >= 1 && src[i - 1] == 'R') {
            // Raw string literal R"delim( ... )delim".
            const std::size_t open = i;
            std::size_t d = i + 1;
            while (d < n && src[d] != '(')
                ++d;
            std::string delim(1, ')');
            delim.append(src, i + 1, d - i - 1);
            delim.push_back('"');
            std::size_t end = src.find(delim, d);
            const std::size_t stop =
                end == std::string::npos ? n : end;
            FullTok t;
            t.kind = 's';
            t.text = src.substr(d + 1, stop - d - 1);
            t.line = line;
            t.col = colOf(open);
            toks.push_back(std::move(t));
            end = end == std::string::npos ? n : end + delim.size();
            for (; i < end; ++i)
                if (src[i] == '\n')
                    bumpLine(i);
            continue;
        }
        if (c == '\'' && i > 0 &&
            std::isalnum(static_cast<unsigned char>(src[i - 1])) &&
            i + 1 < n &&
            std::isalnum(static_cast<unsigned char>(src[i + 1]))) {
            // Digit separator (16'384), not a char literal.
            ++i;
            continue;
        }
        if (c == '"' || c == '\'') {
            const char quote = c;
            const std::size_t open = i;
            ++i;
            const std::size_t start = i;
            while (i < n && src[i] != quote) {
                if (src[i] == '\\')
                    ++i;
                if (i < n && src[i] == '\n')
                    bumpLine(i);
                ++i;
            }
            if (quote == '"') {
                FullTok t;
                t.kind = 's';
                t.text = src.substr(start, i - start);
                t.line = line;
                t.col = colOf(open);
                toks.push_back(std::move(t));
            }
            i = i < n ? i + 1 : n;
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            const std::size_t start = i;
            while (i < n && identChar(src[i]))
                ++i;
            toks.push_back({'i', src.substr(start, i - start), line,
                            colOf(start)});
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            const std::size_t start = i;
            while (i < n &&
                   (identChar(src[i]) || src[i] == '.' ||
                    ((src[i] == '+' || src[i] == '-') && i > start &&
                     (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                      src[i - 1] == 'p' || src[i - 1] == 'P'))))
                ++i;
            toks.push_back({'n', src.substr(start, i - start), line,
                            colOf(start)});
            continue;
        }
        // '::' and '->' matter to name chains; everything else is
        // emitted one character at a time.
        if (c == ':' && i + 1 < n && src[i + 1] == ':') {
            toks.push_back({'p', "::", line, colOf(i)});
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && src[i + 1] == '>') {
            toks.push_back({'p', "->", line, colOf(i)});
            i += 2;
            continue;
        }
        toks.push_back({'p', std::string(1, c), line, colOf(i)});
        ++i;
    }
    return toks;
}

namespace {

/**
 * Declaration walk over one file's tokens.  The scope stack holds the
 * enclosing namespace/class names (empty for anonymous namespaces);
 * function bodies and other blocks declare nothing R12 reads, so the
 * walk records their token range and jumps past them.
 */
struct FileParse
{
    const std::vector<FullTok> &t;
    const std::string &file;
    Program &prog;
    std::vector<std::string> scopes;

    FileParse(const std::vector<FullTok> &toks, const std::string &path,
              Program &program)
        : t(toks), file(path), prog(program)
    {
    }

    bool
    isP(std::size_t i, const char *p) const
    {
        return i < t.size() && t[i].kind == 'p' && t[i].text == p;
    }

    bool
    isI(std::size_t i) const
    {
        return i < t.size() && t[i].kind == 'i';
    }

    bool
    isI(std::size_t i, const char *name) const
    {
        return isI(i) && t[i].text == name;
    }

    /** namespace/class qualification of the current scope chain. */
    std::string
    scopePrefix() const
    {
        std::string out;
        for (const std::string &s : scopes)
            if (!s.empty())
                out += s + "::";
        return out;
    }

    /** Index of the token closing the group opened at @p i, or
     *  t.size() when the file ends first. */
    std::size_t
    closeOf(std::size_t i) const
    {
        static const std::map<std::string, std::string> pairs{
            {"(", ")"}, {"[", "]"}, {"{", "}"}};
        const std::string open = t[i].text;
        const std::string close = pairs.at(open);
        std::size_t depth = 0;
        for (std::size_t j = i; j < t.size(); ++j) {
            if (t[j].kind != 'p')
                continue;
            if (t[j].text == open)
                ++depth;
            else if (t[j].text == close && --depth == 0)
                return j;
        }
        return t.size();
    }

    /** Index just past the token matching the opener at @p i. */
    std::size_t
    matchBalanced(std::size_t i) const
    {
        return std::min(closeOf(i) + 1, t.size());
    }

    /** Classify the construct starting at @p i; return the index to
     *  continue from. */
    std::size_t
    declaration(std::size_t i)
    {
        if (isI(i, "namespace")) {
            std::size_t j = i + 1;
            std::string name;
            while (isI(j) || isP(j, "::")) {
                name += t[j].text;
                ++j;
            }
            if (isP(j, "{")) {
                scopes.push_back(name);
                return j + 1;
            }
            while (j < t.size() && !isP(j, ";"))
                ++j; // namespace alias
            return j + 1;
        }
        if (isI(i, "template")) {
            // Skip the parameter list; the declaration follows.
            std::size_t j = i + 1;
            if (isP(j, "<")) {
                std::size_t angles = 0;
                for (; j < t.size(); ++j) {
                    if (isP(j, "<"))
                        ++angles;
                    else if (isP(j, ">") && --angles == 0) {
                        ++j;
                        break;
                    }
                }
            }
            return j;
        }
        if (isI(i, "class") || isI(i, "struct") || isI(i, "union") ||
            isI(i, "enum")) {
            const bool isEnum = t[i].text == "enum";
            std::size_t j = i + 1;
            if (isEnum && (isI(j, "class") || isI(j, "struct")))
                ++j;
            std::string name;
            if (isI(j)) {
                name = t[j].text;
                ++j;
            }
            // Base clause / enum underlying type up to '{' or ';'.
            while (j < t.size() && !isP(j, "{") && !isP(j, ";") &&
                   !isP(j, "("))
                ++j;
            if (isP(j, "{")) {
                if (isEnum)
                    return matchBalanced(j);
                scopes.push_back(name);
                return j + 1;
            }
            if (isP(j, "("))
                return i + 1; // `struct X f();` -- let the scan go on
            return j + 1;     // forward declaration
        }
        if (isI(i, "using") || isI(i, "typedef") ||
            isI(i, "static_assert") || isI(i, "friend")) {
            std::size_t j = i;
            while (j < t.size() && !isP(j, ";"))
                j = isP(j, "{") || isP(j, "(") ? matchBalanced(j) : j + 1;
            return j + 1;
        }

        // Statement scan: a function-definition pattern, or the ';'
        // (after any initializer) that ends a variable declaration.
        std::size_t j = i;
        while (j < t.size()) {
            if (isP(j, ";"))
                return j + 1;
            if (isP(j, "=")) {
                while (j < t.size() && !isP(j, ";"))
                    j = isP(j, "{") || isP(j, "(") || isP(j, "[")
                            ? matchBalanced(j)
                            : j + 1;
                return j + 1;
            }
            if (isI(j) && isP(j + 1, "(") &&
                !isControlKeyword(t[j].text))
                return declFunction(j);
            if (isI(j, "operator")) {
                // Operator functions are never schema writers.
                while (j < t.size() && !isP(j, "{") && !isP(j, ";"))
                    j = isP(j, "(") ? matchBalanced(j) : j + 1;
                return isP(j, "{") ? matchBalanced(j) : j + 1;
            }
            if (isP(j, "{") || isP(j, "(") || isP(j, "["))
                j = matchBalanced(j);
            else
                ++j;
        }
        return j;
    }

    /**
     * Possible function whose name token is at @p name (followed by
     * '(').  Records a Symbol when a body follows and returns the
     * index just past it.
     */
    std::size_t
    declFunction(std::size_t name)
    {
        std::size_t j = matchBalanced(name + 1);
        // Trailer: const/noexcept/override/->ret/ctor-init list, then
        // '{' for a definition or ';'/','/'=' for a declaration.
        while (j < t.size()) {
            if (isP(j, "{"))
                break;
            if (isP(j, ";") || isP(j, ",") || isP(j, ")"))
                return j + 1; // declaration (or a nested false match)
            if (isP(j, "=")) {
                // `= default` / `= delete` / `= 0`.
                while (j < t.size() && !isP(j, ";"))
                    ++j;
                return j + 1;
            }
            if (isP(j, ":")) {
                // Ctor init list: members with (..) or {..} groups.
                ++j;
                while (j < t.size() && !isP(j, "{")) {
                    if (isP(j, "("))
                        j = matchBalanced(j);
                    else if (isP(j, ";"))
                        return j + 1;
                    else if (isI(j) && isP(j + 1, "{"))
                        j = matchBalanced(j + 1);
                    else
                        ++j;
                }
                break;
            }
            if (isP(j, "(") || isP(j, "<") || isP(j, "["))
                j = isP(j, "<") ? j + 1 : matchBalanced(j);
            else
                ++j;
        }
        if (!isP(j, "{"))
            return j + 1;

        // Qualifier chain written at the definition (Out::name).
        std::vector<std::string> quals;
        for (std::size_t head = name;
             head >= 2 && isP(head - 1, "::") && isI(head - 2);
             head -= 2)
            quals.push_back(t[head - 2].text);
        std::reverse(quals.begin(), quals.end());
        std::string qual;
        for (const std::string &q : quals)
            qual += q + "::";

        Symbol sym;
        sym.name = t[name].text;
        sym.qualified = scopePrefix() + qual + sym.name;
        sym.file = file;
        sym.line = t[name].line;
        sym.bodyBegin = j + 1;
        sym.bodyEnd = closeOf(j);
        prog.byName[sym.name].push_back(
            static_cast<int>(prog.symbols.size()));
        prog.symbols.push_back(sym);
        return matchBalanced(j);
    }

    void
    run()
    {
        std::size_t i = 0;
        while (i < t.size()) {
            if (isP(i, "}")) {
                if (!scopes.empty())
                    scopes.pop_back();
                ++i;
            } else if (isP(i, "{")) {
                i = matchBalanced(i); // a block declaring no functions
            } else if (isP(i, ";") || isP(i, ":") ||
                       isI(i, "public") || isI(i, "private") ||
                       isI(i, "protected")) {
                ++i;
            } else {
                i = declaration(i);
            }
        }
    }
};

} // namespace

Program
indexProgram(const std::vector<SourceFile> &files)
{
    Program prog;
    for (const SourceFile &file : files) {
        prog.tokens[file.path] = tokenizeFull(file.content);
        FileParse(prog.tokens[file.path], file.path, prog).run();
    }
    return prog;
}

} // namespace lint
} // namespace rsin
