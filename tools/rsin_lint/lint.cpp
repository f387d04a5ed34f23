#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "include_graph.hpp"
#include "symbols.hpp"
#include "xtu_rules.hpp"

namespace rsin {
namespace lint {

namespace {

bool
isIdent(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** One well-formed `rsin-lint: allow(...)` suppression comment. */
struct Directive
{
    std::size_t line = 0;        ///< line the comment sits on
    std::set<std::string> rules; ///< rules it waives
    bool used = false;           ///< masked a finding this run
};

/**
 * Result of the lexical pre-pass: the source with comments and
 * string/char literals blanked to spaces (newlines preserved, so line
 * numbers and column positions survive), plus the parsed suppression
 * comments and any malformed-suppression findings.
 */
struct Stripped
{
    std::string code;
    std::vector<Directive> directives;
    std::vector<Finding> errors;
};

const std::set<std::string> &
knownRules()
{
    static const std::set<std::string> rules{
        "R1", "R2", "R3", "R4",  "R5", "R6",
        "R7", "R8", "R9", "R11", "R12"};
    return rules;
}

/**
 * Parse one line comment for "rsin-lint: allow(R1,R2): reason".  The
 * suppression covers the comment's line and, so directives can sit on
 * their own line above the code they excuse, the following line.
 * Only // comments carry directives: block comments are documentation,
 * which lets this very file show the syntax without suppressing
 * anything.
 */
void
parseDirective(const std::string &comment, std::size_t comment_line,
               const std::string &path, Stripped &out)
{
    const std::string kTag = "rsin-lint:";
    const std::size_t tag = comment.find(kTag);
    if (tag == std::string::npos)
        return;
    std::size_t pos = tag + kTag.size();
    while (pos < comment.size() && comment[pos] == ' ')
        ++pos;
    const std::string kAllow = "allow(";
    if (comment.compare(pos, kAllow.size(), kAllow) != 0) {
        out.errors.push_back({path, comment_line, "SUP",
                              "malformed rsin-lint directive (expected "
                              "'allow(<rule>): <reason>')"});
        return;
    }
    pos += kAllow.size();
    const std::size_t close = comment.find(')', pos);
    if (close == std::string::npos) {
        out.errors.push_back({path, comment_line, "SUP",
                              "unterminated allow(...) rule list"});
        return;
    }
    // Split the rule list on commas and validate every name.
    std::set<std::string> rules;
    std::string name;
    std::istringstream list(comment.substr(pos, close - pos));
    while (std::getline(list, name, ',')) {
        name.erase(std::remove(name.begin(), name.end(), ' '),
                   name.end());
        if (!knownRules().count(name)) {
            out.errors.push_back({path, comment_line, "SUP",
                                  "unknown rule '" + name +
                                      "' in allow()"});
            return;
        }
        rules.insert(name);
    }
    if (rules.empty()) {
        out.errors.push_back(
            {path, comment_line, "SUP", "empty allow() rule list"});
        return;
    }
    // The reason is mandatory: ": <non-blank text>" after the ')'.
    std::size_t after = close + 1;
    while (after < comment.size() && comment[after] == ' ')
        ++after;
    bool has_reason = false;
    if (after < comment.size() && comment[after] == ':') {
        for (std::size_t i = after + 1; i < comment.size(); ++i)
            if (!std::isspace(static_cast<unsigned char>(comment[i]))) {
                has_reason = true;
                break;
            }
    }
    if (!has_reason) {
        out.errors.push_back(
            {path, comment_line, "SUP",
             "suppression without a reason (write 'rsin-lint: "
             "allow(<rule>): <why the rule does not apply>')"});
        return;
    }
    out.directives.push_back({comment_line, rules, false});
}

/**
 * Blank comments and string/char literals (raw strings included) while
 * collecting rsin-lint directives.  Replacing with spaces keeps every
 * remaining token at its original line and column.
 */
Stripped
strip(const std::string &path, const std::string &src)
{
    Stripped out;
    out.code.assign(src.size(), ' ');
    std::size_t line = 1;
    std::size_t i = 0;
    const std::size_t n = src.size();
    auto copyChar = [&](std::size_t at) { out.code[at] = src[at]; };
    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            out.code[i] = '\n';
            ++line;
            ++i;
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            const std::size_t start = i;
            while (i < n && src[i] != '\n')
                ++i;
            parseDirective(src.substr(start, i - start), line, path, out);
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            // Block comments never carry directives (see parseDirective).
            i += 2;
            while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
                if (src[i] == '\n') {
                    out.code[i] = '\n';
                    ++line;
                }
                ++i;
            }
            i = i + 1 < n ? i + 2 : n;
            continue;
        }
        if (c == '"' && i >= 1 && src[i - 1] == 'R') {
            // Raw string literal R"delim( ... )delim".
            std::size_t d = i + 1;
            while (d < n && src[d] != '(')
                ++d;
            // Built piecewise: the obvious `")" + substr + "\""` trips
            // a gcc-12 -Wrestrict false positive inside libstdc++.
            std::string delim(1, ')');
            delim.append(src, i + 1, d - i - 1);
            delim.push_back('"');
            std::size_t end = src.find(delim, d);
            end = end == std::string::npos ? n : end + delim.size();
            for (; i < end; ++i)
                if (src[i] == '\n') {
                    out.code[i] = '\n';
                    ++line;
                }
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
            ++i;
            while (i < n && src[i] != quote) {
                if (src[i] == '\\')
                    ++i;
                if (i < n && src[i] == '\n') {
                    out.code[i] = '\n';
                    ++line;
                }
                ++i;
            }
            i = i < n ? i + 1 : n;
            continue;
        }
        copyChar(i);
        ++i;
    }
    return out;
}

/** Directory scoping of the rules, derived from the file's path. */
struct Scope
{
    bool rngImpl = false;        ///< src/common/rng.{cpp,hpp}: R1 home
    bool rngHome = false;        ///< src/common/: R8 does not apply
    bool deterministic = false;  ///< src/{des,rsin,exec,workload}: R2
    bool modelCode = false;      ///< src/: R3, R4
    bool outputLayer = false;    ///< src/common/table.*, src/obs: R4 off
    bool consumer = false;       ///< bench/, examples/: R5
    bool ioHome = false;         ///< tests/, src/common/fsio.*: R11 off
};

bool
pathHas(const std::string &path, const std::string &piece)
{
    const std::size_t at = path.find(piece);
    if (at == std::string::npos)
        return false;
    return at == 0 || path[at - 1] == '/';
}

Scope
classify(const std::string &path)
{
    Scope s;
    s.rngImpl = pathHas(path, "src/common/rng.");
    s.rngHome = pathHas(path, "src/common/");
    s.deterministic = pathHas(path, "src/des/") ||
                      pathHas(path, "src/rsin/") ||
                      pathHas(path, "src/exec/") ||
                      pathHas(path, "src/workload/");
    s.modelCode = pathHas(path, "src/");
    s.outputLayer = pathHas(path, "src/common/table.") ||
                    pathHas(path, "src/obs/");
    s.consumer = pathHas(path, "bench/") || pathHas(path, "examples/");
    s.ioHome = path.rfind("tests/", 0) == 0 ||
               pathHas(path, "src/common/fsio.");
    return s;
}

/** Is code[at..at+token) a whole identifier-token match? */
bool
tokenAt(const std::string &code, std::size_t at, const std::string &token)
{
    if (at > 0 && isIdent(code[at - 1]))
        return false;
    const std::size_t end = at + token.size();
    return end >= code.size() || !isIdent(code[end]);
}

/** First non-space position at or after @p at. */
std::size_t
skipSpaces(const std::string &code, std::size_t at)
{
    while (at < code.size() &&
           (code[at] == ' ' || code[at] == '\t'))
        ++at;
    return at;
}

struct Line
{
    std::size_t number; ///< 1-based
    std::string text;   ///< stripped code of this line
};

std::vector<Line>
splitLines(const std::string &code)
{
    std::vector<Line> lines;
    std::size_t start = 0;
    std::size_t number = 1;
    for (std::size_t i = 0; i <= code.size(); ++i) {
        if (i == code.size() || code[i] == '\n') {
            lines.push_back({number, code.substr(start, i - start)});
            start = i + 1;
            ++number;
        }
    }
    return lines;
}

/** All positions where @p token occurs as a whole token in @p text. */
std::vector<std::size_t>
tokenHits(const std::string &text, const std::string &token)
{
    std::vector<std::size_t> hits;
    for (std::size_t at = text.find(token); at != std::string::npos;
         at = text.find(token, at + 1))
        if (tokenAt(text, at, token))
            hits.push_back(at);
    return hits;
}

/** R1: ambient randomness and wall-clock sources. */
void
ruleR1(const std::vector<Line> &lines, const Scope &scope,
       const std::string &path, std::vector<Finding> &out)
{
    if (scope.rngImpl)
        return; // the one sanctioned home of raw entropy
    struct Token
    {
        const char *token;
        const char *what;
        bool callOnly; ///< require '(' next (bare name is harmless)
    };
    static const Token kTokens[] = {
        {"rand", "rand()", true},
        {"srand", "srand()", true},
        {"drand48", "drand48()", true},
        {"random_device", "std::random_device", false},
        {"system_clock", "std::chrono::system_clock", false},
        {"getrandom", "getrandom()", true},
        {"clock", "clock()", true},
        {"gettimeofday", "gettimeofday()", true},
    };
    for (const Line &line : lines) {
        for (const Token &t : kTokens) {
            for (std::size_t at : tokenHits(line.text, t.token)) {
                if (t.callOnly) {
                    const std::size_t next = skipSpaces(
                        line.text, at + std::string(t.token).size());
                    if (next >= line.text.size() ||
                        line.text[next] != '(')
                        continue;
                }
                out.push_back(
                    {path, line.number, "R1",
                     std::string(t.what) +
                         ": ambient randomness/wall-clock breaks seed "
                         "reproducibility; draw from rsin::Rng (seeded "
                         "per cell) instead"});
            }
        }
        // time(nullptr) / time(NULL): the call form only; bare
        // identifiers named "time" are everywhere and harmless.
        for (std::size_t at : tokenHits(line.text, "time")) {
            std::size_t next = skipSpaces(line.text, at + 4);
            if (next >= line.text.size() || line.text[next] != '(')
                continue;
            next = skipSpaces(line.text, next + 1);
            if (line.text.compare(next, 7, "nullptr") == 0 ||
                line.text.compare(next, 4, "NULL") == 0 ||
                (next < line.text.size() && line.text[next] == '0'))
                out.push_back(
                    {path, line.number, "R1",
                     "time(nullptr): wall-clock seeding breaks "
                     "reproducibility; derive seeds from the cell "
                     "coordinates instead"});
        }
    }
}

/** R2: unordered containers in determinism-critical directories. */
void
ruleR2(const std::vector<Line> &lines, const Scope &scope,
       const std::string &path, std::vector<Finding> &out)
{
    if (!scope.deterministic)
        return;
    static const char *kTokens[] = {
        "unordered_map",
        "unordered_set",
        "unordered_multimap",
        "unordered_multiset",
    };
    for (const Line &line : lines) {
        // #include <unordered_map> is not a use; the declarations and
        // iterations are what the rule is after.
        const std::size_t first = skipSpaces(line.text, 0);
        if (first < line.text.size() && line.text[first] == '#')
            continue;
        for (const char *token : kTokens)
            for (std::size_t at : tokenHits(line.text, token)) {
                (void)at;
                out.push_back(
                    {path, line.number, "R2",
                     std::string("std::") + token +
                         " in a determinism-critical directory: "
                         "iteration order varies across standard "
                         "libraries and hash seeds, so any walk over "
                         "it can reorder results; use std::map, "
                         "std::vector, or sort before iterating"});
            }
    }
}

/**
 * R3: float discipline in model code.  Flags the `float` type, float
 * conversions (stof/strtof) and f-suffixed literals; the numeric model
 * is double end-to-end so the 17-digit round-trip in src/obs is exact.
 */
void
ruleR3(const std::vector<Line> &lines, const Scope &scope,
       const std::string &path, std::vector<Finding> &out)
{
    if (!scope.modelCode)
        return;
    for (const Line &line : lines) {
        for ([[maybe_unused]] std::size_t at :
             tokenHits(line.text, "float"))
            out.push_back({path, line.number, "R3",
                           "float type in model code: the simulators "
                           "and solvers are double end-to-end "
                           "(17-significant-digit round-trip); use "
                           "double"});
        for (const char *token : {"stof", "strtof"})
            for (std::size_t at : tokenHits(line.text, token)) {
                (void)at;
                out.push_back({path, line.number, "R3",
                               std::string(token) +
                                   " parses single precision; use the "
                                   "double-precision variant"});
            }
        // f-suffixed numeric literals (1.0f, 1.f, 3e8f) narrow to
        // float.  Hex integer literals (0x1f) are not literals of
        // interest: skip anything starting 0x/0X.
        const std::string &text = line.text;
        for (std::size_t i = 0; i < text.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(text[i])) ||
                (i > 0 && (isIdent(text[i - 1]) || text[i - 1] == '.')))
                continue;
            const std::size_t start = i;
            const bool hex = text[i] == '0' && i + 1 < text.size() &&
                             (text[i + 1] == 'x' || text[i + 1] == 'X');
            std::size_t j = i;
            while (j < text.size() &&
                   (isIdent(text[j]) || text[j] == '.' ||
                    ((text[j] == '+' || text[j] == '-') && j > start &&
                     (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                      text[j - 1] == 'p' || text[j - 1] == 'P'))))
                ++j;
            const std::string literal = text.substr(start, j - start);
            const char last = literal.back();
            if (!hex && (last == 'f' || last == 'F') &&
                literal.find('.') == std::string::npos &&
                literal.find('e') == std::string::npos &&
                literal.find('E') == std::string::npos) {
                // "3f" with no dot/exponent is not a valid float
                // literal; nothing to flag.
            } else if (!hex && (last == 'f' || last == 'F')) {
                out.push_back({path, line.number, "R3",
                               "f-suffixed literal '" + literal +
                                   "' narrows to float; drop the "
                                   "suffix"});
            }
            i = j;
        }
    }
}

/** R4: stdout writes in library code. */
void
ruleR4(const std::vector<Line> &lines, const Scope &scope,
       const std::string &path, std::vector<Finding> &out)
{
    if (!scope.modelCode || scope.outputLayer)
        return;
    for (const Line &line : lines) {
        for (std::size_t at : tokenHits(line.text, "cout")) {
            (void)at;
            out.push_back({path, line.number, "R4",
                           "std::cout in library code: all table/report "
                           "output flows through src/common/table or "
                           "src/obs so artifacts and display never "
                           "diverge"});
        }
        for (const char *token : {"printf", "puts", "putchar"})
            for (std::size_t at : tokenHits(line.text, token)) {
                const std::size_t next = skipSpaces(
                    line.text, at + std::string(token).size());
                if (next >= line.text.size() || line.text[next] != '(')
                    continue;
                out.push_back({path, line.number, "R4",
                               std::string(token) +
                                   "() writes stdout from library "
                                   "code; route output through "
                                   "src/common/table or src/obs"});
            }
        for (std::size_t at : tokenHits(line.text, "fprintf")) {
            std::size_t next = skipSpaces(line.text, at + 7);
            if (next >= line.text.size() || line.text[next] != '(')
                continue;
            next = skipSpaces(line.text, next + 1);
            if (line.text.compare(next, 6, "stdout") == 0)
                out.push_back({path, line.number, "R4",
                               "fprintf(stdout, ...) in library code; "
                               "route output through src/common/table "
                               "or src/obs"});
        }
    }
}

/**
 * R11: non-reentrant calls and direct file writes.  Sweep cells run
 * on pool workers, so shared-static libc calls race and a plain
 * ofstream can leave a torn artifact; persistence goes through
 * common::writeFileAtomic (src/common/fsio, its one home).
 */
void
ruleR11(const std::vector<Line> &lines, const Scope &scope,
        const std::string &path, std::vector<Finding> &out)
{
    if (scope.ioHome)
        return;
    static const char *kNonReentrant[] = {
        "strtok", "setenv",  "putenv", "localtime", "gmtime",
        "ctime",  "asctime", "tmpnam", "system"};
    const auto callAt = [](const std::string &text, std::size_t at,
                           const char *token) {
        const std::size_t next =
            skipSpaces(text, at + std::string(token).size());
        return next < text.size() && text[next] == '(';
    };
    for (const Line &line : lines) {
        const std::string &text = line.text;
        const std::size_t first = skipSpaces(text, 0);
        if (first < text.size() && text[first] == '#')
            continue; // #include <fstream> declares, it does not write
        for (const char *token : kNonReentrant)
            for (std::size_t at : tokenHits(text, token))
                if (callAt(text, at, token))
                    out.push_back(
                        {path, line.number, "R11",
                         "call to non-reentrant '" + std::string(token) +
                             "': pool workers share its static state; "
                             "use a reentrant alternative"});
        std::vector<const char *> writes;
        for (const char *token : {"ofstream", "fstream"})
            for ([[maybe_unused]] std::size_t at : tokenHits(text, token))
                writes.push_back(token);
        for (const char *token : {"fopen", "freopen"})
            for (std::size_t at : tokenHits(text, token))
                if (callAt(text, at, token))
                    writes.push_back(token);
        for (std::size_t at : tokenHits(text, "open")) {
            std::size_t before = at;
            while (before > 0 && (text[before - 1] == ' ' ||
                                  text[before - 1] == '\t'))
                --before;
            const bool member =
                (before >= 1 && text[before - 1] == '.') ||
                (before >= 2 && text.compare(before - 2, 2, "->") == 0);
            if (member && callAt(text, at, "open"))
                writes.push_back("open");
        }
        for (const char *token : writes)
            out.push_back({path, line.number, "R11",
                           "direct file write ('" + std::string(token) +
                               "'): route persistence through "
                               "common::writeFileAtomic, or suppress "
                               "with the reason the file needs "
                               "another protocol"});
    }
}

// ---------------------------------------------------------------------
// Token stream + scope/branch tracker (rules R5 and R8).
// ---------------------------------------------------------------------

/** One lexical token of the stripped source. */
struct Tok
{
    char kind;        ///< 'i' identifier, 'n' number, 'p' punctuation
    std::string text;
    std::size_t line; ///< 1-based
};

std::vector<Tok>
tokenize(const std::string &code)
{
    std::vector<Tok> toks;
    std::size_t line = 1;
    std::size_t i = 0;
    const std::size_t n = code.size();
    while (i < n) {
        const char c = code[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            const std::size_t start = i;
            while (i < n && isIdent(code[i]))
                ++i;
            toks.push_back({'i', code.substr(start, i - start), line});
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            const std::size_t start = i;
            while (i < n &&
                   (isIdent(code[i]) || code[i] == '.' ||
                    ((code[i] == '+' || code[i] == '-') && i > start &&
                     (code[i - 1] == 'e' || code[i - 1] == 'E' ||
                      code[i - 1] == 'p' || code[i - 1] == 'P'))))
                ++i;
            toks.push_back({'n', code.substr(start, i - start), line});
            continue;
        }
        toks.push_back({'p', std::string(1, c), line});
        ++i;
    }
    return toks;
}

/** Metric fields whose value is NaN/garbage unless status is Ok. */
const std::set<std::string> &
metricFields()
{
    static const std::set<std::string> fields{
        "meanDelay",       "normalizedDelay",    "meanResponse",
        "delayHalfWidth",  "delayP95",           "delayP99",
        "timeAvgQueue",    "fractionNoWait",     "delayImbalance",
        "meanRoutingAttempts", "meanBoxesTraversed",
    };
    return fields;
}

/** Calls whose return value is a SimResult (taint sources for R5). */
const std::set<std::string> &
resultProducers()
{
    static const std::set<std::string> calls{
        "simulate", "simulateReplicated", "aggregateReplications"};
    return calls;
}

bool
isEvidenceAt(const std::vector<Tok> &toks, std::size_t i)
{
    const Tok &t = toks[i];
    if (t.kind != 'i')
        return false;
    if (t.text == "status" || t.text == "RunStatus" ||
        t.text == "displayValue" || t.text == "statusToken" ||
        t.text == "saturated" || t.text == "stable")
        return true;
    if (t.text == "ok")
        return i + 1 < toks.size() && toks[i + 1].kind == 'p' &&
               toks[i + 1].text == "(";
    return false;
}

/** Per-brace-scope flow state for R5/R8. */
struct Frame
{
    bool evidence = false;         ///< a RunStatus check reached here
    std::set<std::string> tainted; ///< SimResult variables born here
    std::set<std::string> rngVars; ///< Rng lvalues born here
};

bool
anyFrameHas(const std::vector<Frame> &frames,
            std::set<std::string> Frame::*member, const std::string &name)
{
    for (const Frame &f : frames)
        if ((f.*member).count(name))
            return true;
    return false;
}

/**
 * Flow-sensitive pass: walks the token stream once with a stack of
 * brace scopes.
 *
 * R5 (bench/, examples/): a read of a metric field off a variable
 * known to hold a SimResult (declared `SimResult x` or bound from
 * simulate()/simulateReplicated()/aggregateReplications()) must be
 * *dominated* by status evidence: an ok()/status/RunStatus/
 * displayValue/saturated/stable token earlier in the same scope or an
 * enclosing one, or on the same line.  Evidence inside a nested brace
 * block dies when the block closes, so a check in one branch no longer
 * excuses a read in a sibling branch, and a check in one function no
 * longer excuses a read in the next one -- the failure modes of the
 * old "within 25 lines" heuristic.  Reads off objects that are not
 * simulation results (analytic solutions, accumulators) are no longer
 * flagged at all.
 *
 * R8 (everywhere outside src/common): an Rng received by value,
 * copy-initialized from another Rng, or captured by value in a lambda
 * silently forks the random stream -- both copies replay identical
 * draws, which breaks the independent-stream assumption behind
 * per-cell seeding.  Pass Rng&, move an Rng&&, or derive an
 * independent child with split().
 */
void
flowPass(const std::vector<Tok> &toks, const Scope &scope,
         const std::string &path, std::vector<Finding> &out)
{
    const bool doR5 = scope.consumer;
    const bool doR8 = !scope.rngHome;
    if (!doR5 && !doR8)
        return;

    // Lines carrying evidence anywhere (for the same-line escape:
    // obs::displayValue(res, res.meanDelay) is a checked render).
    std::set<std::size_t> evidenceLines;
    for (std::size_t i = 0; i < toks.size(); ++i)
        if (isEvidenceAt(toks, i))
            evidenceLines.insert(toks[i].line);

    std::vector<Frame> frames(1);
    const std::size_t n = toks.size();

    auto isPunct = [&](std::size_t i, const char *p) {
        return i < n && toks[i].kind == 'p' && toks[i].text == p;
    };
    auto isIdentTok = [&](std::size_t i) {
        return i < n && toks[i].kind == 'i';
    };

    for (std::size_t i = 0; i < n; ++i) {
        const Tok &t = toks[i];
        if (t.kind == 'p') {
            if (t.text == "{") {
                frames.emplace_back();
                continue;
            }
            if (t.text == "}") {
                if (frames.size() > 1)
                    frames.pop_back();
                continue;
            }
            // Lambda capture list: '[' not preceded by an expression.
            if (doR8 && t.text == "[") {
                const bool subscript =
                    i > 0 && (toks[i - 1].kind == 'i' ||
                              toks[i - 1].kind == 'n' ||
                              toks[i - 1].text == ")" ||
                              toks[i - 1].text == "]");
                const bool attribute = isPunct(i + 1, "[");
                if (subscript || attribute)
                    continue;
                // Collect the capture items up to the matching ']'.
                std::size_t depth = 0;
                std::size_t j = i + 1;
                std::vector<std::vector<const Tok *>> items(1);
                for (; j < n; ++j) {
                    if (toks[j].kind == 'p') {
                        const std::string &p = toks[j].text;
                        if (p == "[" || p == "(" || p == "{") {
                            ++depth;
                        } else if (p == ")" || p == "}") {
                            if (depth > 0)
                                --depth;
                        } else if (p == "]") {
                            if (depth == 0)
                                break;
                            --depth;
                        } else if (p == "," && depth == 0) {
                            items.emplace_back();
                            continue;
                        }
                    }
                    items.back().push_back(&toks[j]);
                }
                // A capture list is followed by '(' or '{' (or
                // 'mutable'); anything else is not a lambda.
                const bool lambda =
                    isPunct(j + 1, "(") || isPunct(j + 1, "{") ||
                    (isIdentTok(j + 1) && toks[j + 1].text == "mutable");
                if (!lambda)
                    continue;
                for (const auto &item : items) {
                    if (item.empty() ||
                        (item.front()->kind == 'p' &&
                         item.front()->text == "&"))
                        continue; // by-reference capture: shared stream
                    const Tok *copied = nullptr;
                    if (item.size() == 1 && item[0]->kind == 'i')
                        copied = item[0];
                    else if (item.size() == 3 && item[0]->kind == 'i' &&
                             item[1]->text == "=" &&
                             item[2]->kind == 'i')
                        copied = item[2];
                    if (copied &&
                        anyFrameHas(frames, &Frame::rngVars,
                                    copied->text))
                        out.push_back(
                            {path, copied->line, "R8",
                             "lambda captures Rng '" + copied->text +
                                 "' by value, forking its stream: the "
                                 "copy replays the captured "
                                 "generator's draws; capture by "
                                 "reference [&" + copied->text +
                                 "] or move in an independent "
                                 "split() child"});
                }
                continue;
            }
            continue;
        }

        if (isEvidenceAt(toks, i)) {
            frames.back().evidence = true;
            continue;
        }

        // --- R8: Rng declarations, by-value parameters, copies. ---
        if (doR8 && t.kind == 'i' && t.text == "Rng") {
            std::size_t j = i + 1;
            if (isPunct(j, "&") || isPunct(j, "*")) {
                while (isPunct(j, "&") || isPunct(j, "*") ||
                       (isIdentTok(j) && toks[j].text == "const"))
                    ++j;
                if (isIdentTok(j))
                    frames.back().rngVars.insert(toks[j].text);
                continue;
            }
            if (isPunct(j, ",") || isPunct(j, ")")) {
                // Unnamed by-value parameter: void f(Rng).
                out.push_back(
                    {path, t.line, "R8",
                     "Rng passed by value forks the random stream "
                     "(caller and callee replay identical draws); "
                     "take Rng& for a shared stream, Rng&& + move "
                     "for a handoff, or an explicit split() child"});
                continue;
            }
            if (!isIdentTok(j))
                continue;
            const Tok &name = toks[j];
            frames.back().rngVars.insert(name.text);
            if (isPunct(j + 1, ",") || isPunct(j + 1, ")")) {
                out.push_back(
                    {path, name.line, "R8",
                     "Rng parameter '" + name.text +
                         "' is received by value, forking the "
                         "caller's stream (both replay identical "
                         "draws); take Rng& for a shared stream, "
                         "Rng&& + std::move for a handoff, or an "
                         "explicit split() child"});
                continue;
            }
            if (isPunct(j + 1, "=") && isIdentTok(j + 2) &&
                isPunct(j + 3, ";") &&
                anyFrameHas(frames, &Frame::rngVars, toks[j + 2].text)) {
                out.push_back(
                    {path, name.line, "R8",
                     "Rng '" + name.text + "' copy-initialized from '" +
                         toks[j + 2].text +
                         "' forks the stream: both replay identical "
                         "draws; use " + toks[j + 2].text +
                         ".split() for an independent child"});
                continue;
            }
            if ((isPunct(j + 1, "(") || isPunct(j + 1, "{")) &&
                isIdentTok(j + 2) &&
                (isPunct(j + 3, ")") || isPunct(j + 3, "}")) &&
                anyFrameHas(frames, &Frame::rngVars, toks[j + 2].text)) {
                out.push_back(
                    {path, name.line, "R8",
                     "Rng '" + name.text + "' copy-constructed from '" +
                         toks[j + 2].text +
                         "' forks the stream: both replay identical "
                         "draws; use " + toks[j + 2].text +
                         ".split() for an independent child"});
                continue;
            }
            continue;
        }

        if (!doR5)
            continue;

        // --- R5: taint declarations. ---
        if (t.kind == 'i' && t.text == "SimResult") {
            std::size_t j = i + 1;
            while (isPunct(j, "&"))
                ++j;
            if (isIdentTok(j) &&
                (isPunct(j + 1, ";") || isPunct(j + 1, "=")))
                frames.back().tainted.insert(toks[j].text);
            continue;
        }
        if (t.kind == 'i' && t.text == "auto") {
            std::size_t j = i + 1;
            while (isPunct(j, "&") || isPunct(j, "*"))
                ++j;
            if (!isIdentTok(j) || !isPunct(j + 1, "="))
                continue;
            // Does the initializer call a SimResult producer?
            for (std::size_t k = j + 2; k < n && k < j + 64; ++k) {
                if (toks[k].kind == 'p' && toks[k].text == ";")
                    break;
                if (toks[k].kind == 'i' &&
                    resultProducers().count(toks[k].text) &&
                    isPunct(k + 1, "(")) {
                    frames.back().tainted.insert(toks[j].text);
                    break;
                }
            }
            continue;
        }

        // --- R5: metric reads. ---
        if (t.kind == 'i' && metricFields().count(t.text) && i > 0 &&
            isPunct(i - 1, ".")) {
            // Receiver: the token before the '.'.
            bool taintedRead = false;
            if (i >= 2 && toks[i - 2].kind == 'i') {
                taintedRead = anyFrameHas(frames, &Frame::tainted,
                                          toks[i - 2].text);
            } else if (i >= 2 && isPunct(i - 2, ")")) {
                // simulate(...).meanDelay -- walk back to the call
                // head through the balanced parens.
                std::size_t depth = 1;
                std::size_t k = i - 2;
                while (k > 0 && depth > 0) {
                    --k;
                    if (isPunct(k, ")"))
                        ++depth;
                    else if (isPunct(k, "("))
                        --depth;
                }
                if (depth == 0 && k > 0 && toks[k - 1].kind == 'i')
                    taintedRead =
                        resultProducers().count(toks[k - 1].text) > 0;
            }
            if (!taintedRead)
                continue;
            // Writes produce, they do not consume.
            if (isPunct(i + 1, "=") && !isPunct(i + 2, "="))
                continue;
            bool covered = evidenceLines.count(t.line) > 0;
            for (const Frame &f : frames)
                covered = covered || f.evidence;
            if (!covered)
                out.push_back(
                    {path, t.line, "R5",
                     std::string(".") + t.text +
                         " read not dominated by a RunStatus check: "
                         "anything but RunStatus::Ok means the "
                         "estimate is NaN or untrustworthy; test "
                         "res.ok() (or render via obs::displayValue) "
                         "in this scope or an enclosing one first"});
        }
    }
}

/**
 * Drop findings masked by a directive (marking it used); keep the
 * rest.  A directive covers its own line and the next one.
 */
void
applySuppressions(std::map<std::string, std::vector<Directive>> &byPath,
                  std::vector<Finding> &findings)
{
    std::vector<Finding> kept;
    for (Finding &f : findings) {
        const auto it = byPath.find(f.file);
        bool masked = false;
        if (it != byPath.end()) {
            for (Directive &d : it->second) {
                if ((f.line == d.line || f.line == d.line + 1) &&
                    d.rules.count(f.rule)) {
                    d.used = true;
                    masked = true;
                    break;
                }
            }
        }
        if (!masked)
            kept.push_back(std::move(f));
    }
    findings = std::move(kept);
}

/** Milliseconds between two steady-clock points. */
double
msBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

} // namespace

std::vector<Finding>
lintFiles(const std::vector<SourceFile> &files,
          const LintOptions &options)
{
    using Clock = std::chrono::steady_clock;
    const auto mark = [&](const char *phase, Clock::time_point since) {
        if (options.timings != nullptr)
            options.timings->phases.emplace_back(
                phase, msBetween(since, Clock::now()));
    };

    // --- Per-file rules, suppression directives and includes.
    Clock::time_point t0 = Clock::now();
    std::vector<Finding> findings;
    std::vector<Finding> supErrors;
    std::map<std::string, std::vector<Directive>> directives;
    std::vector<IncludeRef> includes;
    std::set<std::string> fileSet;
    for (const SourceFile &file : files) {
        Stripped stripped = strip(file.path, file.content);
        const std::vector<Line> lines = splitLines(stripped.code);
        const Scope scope = classify(file.path);
        ruleR1(lines, scope, file.path, findings);
        ruleR2(lines, scope, file.path, findings);
        ruleR3(lines, scope, file.path, findings);
        ruleR4(lines, scope, file.path, findings);
        ruleR11(lines, scope, file.path, findings);
        flowPass(tokenize(stripped.code), scope, file.path, findings);
        directives[file.path] = std::move(stripped.directives);
        supErrors.insert(supErrors.end(), stripped.errors.begin(),
                         stripped.errors.end());
        const std::vector<IncludeRef> refs =
            extractIncludes(file.path, file.content);
        includes.insert(includes.end(), refs.begin(), refs.end());
        fileSet.insert(file.path);
    }
    mark("perfile", t0);

    // --- Include-graph rules over the whole set.
    t0 = Clock::now();
    for (std::vector<Finding> graph :
         {checkLayering(includes, fileSet),
          checkCycles(includes, fileSet)})
        findings.insert(findings.end(),
                        std::make_move_iterator(graph.begin()),
                        std::make_move_iterator(graph.end()));
    mark("graph", t0);

    // --- R12 over the whole-program function index.  Its findings
    // join the stream *before* suppression so allow(R12) directives
    // and the stale check apply to them like any rule.
    t0 = Clock::now();
    if (options.schemas != nullptr) {
        const Program prog = indexProgram(files);
        std::vector<Finding> schema =
            checkSchemas(prog, *options.schemas, options.textDocs);
        findings.insert(findings.end(),
                        std::make_move_iterator(schema.begin()),
                        std::make_move_iterator(schema.end()));
    }
    mark("index", t0);

    t0 = Clock::now();
    applySuppressions(directives, findings);

    // R9: directives that masked nothing are dead weight -- and often
    // the footprint of a fixed bug whose waiver should ratchet out.
    std::vector<Finding> stale;
    for (const auto &entry : directives) {
        for (const Directive &d : entry.second) {
            if (d.used)
                continue;
            std::string rules;
            for (const std::string &r : d.rules) {
                if (!rules.empty())
                    rules += ',';
                rules += r;
            }
            stale.push_back(
                {entry.first, d.line, "R9",
                 "stale suppression: allow(" + rules +
                     ") masks no finding on this or the next line; "
                     "delete it (or re-justify it against a real "
                     "violation)"});
        }
    }
    applySuppressions(directives, stale);
    findings.insert(findings.end(),
                    std::make_move_iterator(stale.begin()),
                    std::make_move_iterator(stale.end()));

    // Malformed directives always survive.
    findings.insert(findings.end(), supErrors.begin(), supErrors.end());

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    mark("rules", t0);
    return findings;
}

std::vector<Finding>
lintFiles(const std::vector<SourceFile> &files)
{
    return lintFiles(files, LintOptions{});
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &content)
{
    return lintFiles({{path, content}});
}

namespace {

/** Sorted repo-relative paths of the tree's lintable files. */
std::vector<std::string>
treePaths(const std::string &root)
{
    namespace fs = std::filesystem;
    static const char *kSubtrees[] = {"src", "bench", "examples",
                                      "tools", "tests"};
    std::vector<std::string> paths;
    bool any = false;
    for (const char *subtree : kSubtrees) {
        const fs::path dir = fs::path(root) / subtree;
        if (!fs::is_directory(dir))
            continue;
        any = true;
        for (const auto &entry : fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext != ".cpp" && ext != ".hpp" && ext != ".h")
                continue;
            const std::string rel =
                fs::relative(entry.path(), root).generic_string();
            // Fixtures violate the rules on purpose.
            if (rel.find("lint_fixtures/") != std::string::npos)
                continue;
            paths.push_back(rel);
        }
    }
    if (!any)
        throw std::runtime_error("rsin-lint: no src/, bench/, "
                                 "examples/, tools/ or tests/ under "
                                 "root '" + root + "'");
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace

TreeReport
lintTree(const std::string &root)
{
    namespace fs = std::filesystem;
    using Clock = std::chrono::steady_clock;
    TreeReport report;
    const Clock::time_point start = Clock::now();
    std::vector<SourceFile> files;
    for (const std::string &path : treePaths(root)) {
        std::ifstream in(fs::path(root) / path, std::ios::binary);
        if (!in) {
            report.unreadable.push_back(path);
            continue;
        }
        std::ostringstream text;
        text << in.rdbuf();
        files.push_back({path, text.str()});
    }

    LintOptions options;
    SchemaManifest manifest;
    const fs::path schemasPath =
        fs::path(root) / "tools" / "rsin_lint" / "schemas.json";
    if (fs::is_regular_file(schemasPath)) {
        std::ifstream in(schemasPath, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        manifest = parseSchemaManifest(text.str());
        options.schemas = &manifest;
    }
    const std::map<std::string, std::string> textDocs =
        loadTextDocs(root, manifest);
    options.textDocs = &textDocs;
    options.timings = &report.timings;
    report.timings.phases.emplace_back("collect",
                                       msBetween(start, Clock::now()));

    report.findings = lintFiles(files, options);
    report.timings.totalMs = msBetween(start, Clock::now());
    return report;
}

std::string
formatFindings(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    for (const Finding &f : findings)
        out << f.file << ":" << f.line << ": [" << f.rule << "] "
            << f.message << "\n";
    return out.str();
}

} // namespace lint
} // namespace rsin
