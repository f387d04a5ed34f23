#pragma once

/**
 * @file
 * Whole-program function index for the schema rule R12: every file's
 * token stream plus every function definition with its qualified name
 * and body token range, built over the same comment/string-aware
 * lexing as the per-file rules.
 *
 * R12 pins the field set a writer emits and its parser consumes; the
 * two often sit in different files, so the rule needs the program,
 * not one file.  Everything is lexical (no libclang): overload sets
 * collapse to one name, templates are plain functions -- the same
 * dependency-free trade the per-file rules make.
 */

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lint.hpp"

namespace rsin {
namespace lint {

/** One lexical token with its position (string literals preserved). */
struct FullTok
{
    char kind = 'p';  ///< 'i' ident, 'n' number, 'p' punct, 's' string
    std::string text; ///< for 's': literal contents, escapes raw
    std::size_t line = 0; ///< 1-based
    std::size_t col = 0;  ///< 1-based column of the first character
};

/**
 * Tokenize raw source: comments and preprocessor directives dropped,
 * string/char literals kept as 's' tokens (their contents matter to
 * the schema fingerprinting of R12).
 */
std::vector<FullTok> tokenizeFull(const std::string &src);

/** A function definition (free or member) in the program. */
struct Symbol
{
    std::string qualified; ///< "rsin::obs::LedgerWriter::append"
    std::string name;      ///< last component ("append")
    std::string file;
    std::size_t line = 0;
    /** Body token range [begin, end) into the file's token stream. */
    std::size_t bodyBegin = 0;
    std::size_t bodyEnd = 0;
};

/** The indexed program: every file's tokens and function bodies. */
struct Program
{
    std::vector<Symbol> symbols;
    /** Unqualified name -> symbol ids (overloads collapse). */
    std::map<std::string, std::vector<int>> byName;
    /** Per-file token streams, for the body scans of R12. */
    std::map<std::string, std::vector<FullTok>> tokens;
};

/** Build the whole-program index over @p files. */
Program indexProgram(const std::vector<SourceFile> &files);

} // namespace lint
} // namespace rsin
