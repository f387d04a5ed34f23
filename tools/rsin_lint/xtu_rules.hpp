#pragma once

/**
 * @file
 * R12, serialized-schema drift: the field set a writer emits and its
 * parser consumes is fingerprinted against the committed manifest
 * tools/rsin_lint/schemas.json; changing the fields without bumping
 * the schema version is an error, because it corrupts every resumable
 * campaign ledger retroactively.  R12 only checks writer/parser pairs
 * the manifest names; the two sides may sit in different files, so
 * the rule runs over the whole-program index of symbols.hpp.
 */

#include <map>
#include <string>
#include <vector>

#include "lint.hpp"
#include "symbols.hpp"

namespace rsin {
namespace lint {

/** One writer/parser pair pinned by tools/rsin_lint/schemas.json. */
struct SchemaEntry
{
    std::string tag; ///< versioned schema tag, e.g. "rsin.ledger.v1"
    std::string writerFile;
    std::string writerFunction;
    std::string parserFile;
    std::string parserFunction;
    /** Field names both sides must agree on (empty: positional). */
    std::vector<std::string> fields;
    /** Expected word count for positional formats; -1 when n/a. */
    long words = -1;
    /** Text mode: the sides are scripts (shell/python), matched by
     *  raw-text field extraction instead of the token-level scan;
     *  "function" is ignored ("-" by convention). */
    bool textMode = false;
    /** Per-side field overrides for asymmetric pairs (a writer that
     *  emits a subset of what the parser reads); empty means use the
     *  shared `fields` list. */
    std::vector<std::string> writerFields;
    std::vector<std::string> parserFields;
};

/** The parsed schemas.json manifest (schema rsin.lint_schemas.v1). */
struct SchemaManifest
{
    std::vector<SchemaEntry> entries;
};

/**
 * Parse a schemas.json document.  Throws std::runtime_error on
 * malformed JSON (obs::parseJson's FatalError), a wrong schema tag,
 * or a structurally incomplete entry -- a silently ignored manifest
 * would turn R12 off.
 */
SchemaManifest parseSchemaManifest(const std::string &json);

/**
 * R12: writer/parser field sets vs the committed schema manifest.
 * Text-mode entries are matched against @p textDocs (repo-relative
 * path -> raw file text, see loadTextDocs()); a text-mode side
 * missing from @p textDocs is itself a finding (manifest rot).
 */
std::vector<Finding>
checkSchemas(const Program &prog, const SchemaManifest &manifest,
             const std::map<std::string, std::string> *textDocs);

/**
 * Read the side files named by @p manifest's text-mode entries from
 * @p root (repo-relative paths).  Unreadable files are simply absent
 * from the map; checkSchemas() reports them.
 */
std::map<std::string, std::string>
loadTextDocs(const std::string &root, const SchemaManifest &manifest);

} // namespace lint
} // namespace rsin
