#include "xtu_rules.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/json.hpp"

namespace rsin {
namespace lint {

namespace {

bool
identCharX(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}


/** Require @p v to be a string member of @p obj, else throw. */
std::string
wantString(const obs::JsonValue &obj, const char *key, const char *where)
{
    const obs::JsonValue *v = obj.find(key);
    if (v == nullptr || v->kind != obs::JsonValue::Kind::String)
        throw std::runtime_error(
            std::string("schemas manifest: missing string '") + key +
            "' in " + where);
    return v->text;
}

} // namespace

SchemaManifest
parseSchemaManifest(const std::string &json)
{
    using Kind = obs::JsonValue::Kind;
    const obs::JsonValue doc = obs::parseJson(json);
    if (doc.kind != Kind::Object)
        throw std::runtime_error(
            "schemas manifest: top level is not an object");
    const obs::JsonValue *schema = doc.find("schema");
    if (schema == nullptr || schema->kind != Kind::String ||
        schema->text != "rsin.lint_schemas.v1")
        throw std::runtime_error("schemas manifest: expected schema "
                                 "tag rsin.lint_schemas.v1");
    SchemaManifest manifest;
    const obs::JsonValue *entries = doc.find("entries");
    if (entries == nullptr || entries->kind != Kind::Array)
        throw std::runtime_error(
            "schemas manifest: missing 'entries' array");
    for (const obs::JsonValue &e : entries->items) {
        if (e.kind != Kind::Object)
            throw std::runtime_error(
                "schemas manifest: entry is not an object");
        SchemaEntry entry;
        entry.tag = wantString(e, "tag", "entry");
        if (const obs::JsonValue *mode = e.find("mode")) {
            if (mode->kind != Kind::String ||
                (mode->text != "text" && mode->text != "tokens"))
                throw std::runtime_error(
                    std::string("schemas manifest: entry '") +
                    entry.tag + "': 'mode' must be \"text\" or "
                    "\"tokens\"");
            entry.textMode = mode->text == "text";
        }
        const auto readFields = [&](const obs::JsonValue &obj,
                                    const char *key,
                                    std::vector<std::string> &into) {
            const obs::JsonValue *list = obj.find(key);
            if (list == nullptr)
                return;
            if (list->kind != Kind::Array)
                throw std::runtime_error(
                    std::string("schemas manifest: entry '") +
                    entry.tag + "': '" + key + "' is not an array");
            for (const obs::JsonValue &f : list->items)
                into.push_back(f.text);
        };
        const auto side = [&](const char *key, std::string &file,
                              std::string &fn,
                              std::vector<std::string> &sideFields) {
            const obs::JsonValue *obj = e.find(key);
            if (obj == nullptr || obj->kind != Kind::Object)
                throw std::runtime_error(
                    std::string("schemas manifest: entry '") +
                    entry.tag + "' missing object '" + key + "'");
            file = wantString(*obj, "file", key);
            // Text-mode sides are whole scripts; "function" is
            // optional there and "-" by convention.
            if (entry.textMode && obj->find("function") == nullptr)
                fn = "-";
            else
                fn = wantString(*obj, "function", key);
            readFields(*obj, "fields", sideFields);
        };
        side("writer", entry.writerFile, entry.writerFunction,
             entry.writerFields);
        side("parser", entry.parserFile, entry.parserFunction,
             entry.parserFields);
        readFields(e, "fields", entry.fields);
        if (const obs::JsonValue *words = e.find("words"))
            entry.words = static_cast<long>(words->number);
        manifest.entries.push_back(std::move(entry));
    }
    return manifest;
}

namespace {

/** Versioned tags "<family>.vN" present anywhere in @p text. */
void
tagsInText(const std::string &text, const std::string &family,
           std::set<std::string> &tags)
{
    const std::string probe = family + ".v";
    std::size_t at = 0;
    while ((at = text.find(probe, at)) != std::string::npos) {
        std::size_t d = at + probe.size();
        std::string digits;
        while (d < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[d]))) {
            digits.push_back(text[d]);
            ++d;
        }
        if (!digits.empty())
            tags.insert(probe + digits);
        at = d;
    }
}

/** Versioned tags "<family>.vN" present in any literal of @p toks. */
std::set<std::string>
tagsInFile(const std::vector<FullTok> &toks, const std::string &family)
{
    std::set<std::string> tags;
    for (const FullTok &tok : toks)
        if (tok.kind == 's')
            tagsInText(tok.text, family, tags);
    return tags;
}

/**
 * Field names a script emits or consumes, by raw-text patterns:
 * `"name":` (JSON keys a shell writer greps or assembles),
 * `["name"]` and `.get("name"` (python dict access).
 */
std::set<std::string>
extractTextFields(const std::string &text)
{
    std::set<std::string> fields;
    const auto identAt = [&](std::size_t at, std::string &name,
                             std::size_t &end) {
        name.clear();
        while (at < text.size() && identCharX(text[at]))
            name.push_back(text[at++]);
        end = at;
        return !name.empty();
    };
    for (std::size_t i = 0; i + 1 < text.size(); ++i) {
        std::string name;
        std::size_t end = 0;
        if (text[i] == '"') {
            if (!identAt(i + 1, name, end) || end >= text.size() ||
                text[end] != '"')
                continue;
            std::size_t after = end + 1;
            while (after < text.size() && text[after] == ' ')
                ++after;
            // `"name":` -- a JSON key; `"name"]` -- a dict subscript
            // whose '[' sits before the opening quote.
            const bool jsonKey =
                after < text.size() && text[after] == ':';
            const bool subscript = end + 1 < text.size() &&
                                   text[end + 1] == ']' && i > 0 &&
                                   text[i - 1] == '[';
            const bool getCall =
                i >= 5 && text.compare(i - 5, 5, ".get(") == 0;
            if (jsonKey || subscript || getCall)
                fields.insert(name);
            i = end;
        }
    }
    return fields;
}

/**
 * The field names a function emits or consumes: first string-literal
 * argument of field()/key()/find()/member() calls, plus `\"name\":`
 * patterns embedded in any literal of the body (covers printf-style
 * writers like formatLedgerLine).
 */
std::set<std::string>
extractFields(const Program &prog, const Symbol &sym)
{
    static const std::set<std::string> kAccessors{"field", "key",
                                                  "find", "member"};
    std::set<std::string> fields;
    const auto tokIt = prog.tokens.find(sym.file);
    if (tokIt == prog.tokens.end())
        return fields;
    const std::vector<FullTok> &toks = tokIt->second;
    const auto identLike = [](const std::string &s) {
        if (s.empty())
            return false;
        for (const char c : s)
            if (!identCharX(c))
                return false;
        return true;
    };
    for (std::size_t k = sym.bodyBegin;
         k < sym.bodyEnd && k < toks.size(); ++k) {
        if (toks[k].kind == 'i' && kAccessors.count(toks[k].text) &&
            k + 1 < toks.size() && toks[k + 1].kind == 'p' &&
            toks[k + 1].text == "(") {
            std::size_t depth = 0;
            for (std::size_t j = k + 1; j < toks.size(); ++j) {
                if (toks[j].kind == 'p') {
                    if (toks[j].text == "(")
                        ++depth;
                    else if (toks[j].text == ")" && --depth == 0)
                        break;
                } else if (toks[j].kind == 's') {
                    if (identLike(toks[j].text))
                        fields.insert(toks[j].text);
                    break;
                }
            }
        }
        if (toks[k].kind == 's') {
            // \"name\": inside the literal's raw (escaped) text.
            const std::string &s = toks[k].text;
            for (std::size_t a = 0; a + 1 < s.size(); ++a) {
                if (s[a] != '\\' || s[a + 1] != '"')
                    continue;
                std::size_t b = a + 2;
                std::string name;
                while (b < s.size() && identCharX(s[b]))
                    name.push_back(s[b++]);
                if (!name.empty() && b + 2 < s.size() &&
                    s[b] == '\\' && s[b + 1] == '"' &&
                    s[b + 2] == ':')
                    fields.insert(name);
                a = b;
            }
        }
    }
    return fields;
}

const Symbol *
findFunction(const Program &prog, const std::string &file,
             const std::string &name)
{
    const auto it = prog.byName.find(name);
    if (it == prog.byName.end())
        return nullptr;
    for (const int id : it->second) {
        const Symbol &sym =
            prog.symbols[static_cast<std::size_t>(id)];
        if (sym.file == file)
            return &sym;
    }
    return nullptr;
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names)
        out += (out.empty() ? "" : ", ") + n;
    return out;
}

} // namespace

std::vector<Finding>
checkSchemas(const Program &prog, const SchemaManifest &manifest,
             const std::map<std::string, std::string> *textDocs)
{
    std::vector<Finding> out;
    const auto compareFields = [&out](const SchemaEntry &entry,
                                      const std::set<std::string> &got,
                                      const std::set<std::string> &want,
                                      const std::string &file,
                                      std::size_t line,
                                      const char *role,
                                      const std::string &fn) {
        std::vector<std::string> missing;
        std::vector<std::string> extra;
        for (const std::string &f : want)
            if (!got.count(f))
                missing.push_back(f);
        for (const std::string &f : got)
            if (!want.count(f))
                extra.push_back(f);
        if (missing.empty() && extra.empty())
            return;
        std::string msg =
            "schema '" + entry.tag + "': " + role + " '" + fn + "'";
        if (!extra.empty())
            msg += " emits fields not in the manifest: " +
                   joinNames(extra);
        if (!missing.empty())
            msg += std::string(extra.empty() ? "" : ";") +
                   " never touches manifest fields: " +
                   joinNames(missing);
        msg += " -- bump the schema version or update "
               "tools/rsin_lint/schemas.json in the same change";
        out.push_back({file, line, "R12", msg});
    };

    for (const SchemaEntry &entry : manifest.entries) {
        // Family = tag minus its trailing ".vN".
        std::string family = entry.tag;
        const std::size_t dotV = family.rfind(".v");
        if (dotV != std::string::npos &&
            dotV + 2 < family.size() &&
            std::isdigit(
                static_cast<unsigned char>(family[dotV + 2])))
            family.resize(dotV);

        if (entry.textMode) {
            // Text-mode sides are scripts outside the linted C++
            // tree; their raw text comes through textDocs.
            const auto textSide =
                [&](const std::string &file,
                    const std::vector<std::string> &sideFields,
                    const char *role) {
                if (textDocs == nullptr)
                    return;
                const auto it = textDocs->find(file);
                if (it == textDocs->end()) {
                    out.push_back(
                        {file, 1, "R12",
                         "schema '" + entry.tag +
                             "': manifest names text-mode " +
                             std::string(role) + " file '" + file +
                             "' which could not be read; fix "
                             "tools/rsin_lint/schemas.json"});
                    return;
                }
                std::set<std::string> tags;
                tagsInText(it->second, family, tags);
                if (!tags.empty() && !tags.count(entry.tag))
                    return; // deliberate re-version in flight
                const std::vector<std::string> &fieldList =
                    sideFields.empty() ? entry.fields : sideFields;
                compareFields(entry, extractTextFields(it->second),
                              std::set<std::string>(fieldList.begin(),
                                                    fieldList.end()),
                              file, 1, role, file);
            };
            textSide(entry.writerFile, entry.writerFields, "writer");
            textSide(entry.parserFile, entry.parserFields, "parser");
            continue;
        }

        const auto side = [&](const std::string &file,
                              const std::string &fn,
                              const std::vector<std::string> &sideFields,
                              const char *role) {
            const auto tokIt = prog.tokens.find(file);
            if (tokIt == prog.tokens.end()) {
                out.push_back(
                    {file, 1, "R12",
                     "schema '" + entry.tag + "': manifest names " +
                         std::string(role) + " file '" + file +
                         "' which is not in the linted tree; fix "
                         "tools/rsin_lint/schemas.json"});
                return;
            }
            const Symbol *sym = findFunction(prog, file, fn);
            if (sym == nullptr) {
                out.push_back(
                    {file, 1, "R12",
                     "schema '" + entry.tag + "': manifest names " +
                         std::string(role) + " function '" + fn +
                         "' which does not exist in " + file +
                         "; fix tools/rsin_lint/schemas.json"});
                return;
            }
            // Version-bump exemption: the file carries tags of this
            // family, but not the manifest's version -- the format
            // was deliberately re-versioned, so drift is expected
            // until the manifest entry is updated alongside it.
            const std::set<std::string> tags =
                tagsInFile(tokIt->second, family);
            if (!tags.empty() && !tags.count(entry.tag))
                return;

            const std::vector<std::string> &fieldList =
                sideFields.empty() ? entry.fields : sideFields;
            compareFields(entry, extractFields(prog, *sym),
                          std::set<std::string>(fieldList.begin(),
                                                fieldList.end()),
                          file, sym->line, role, fn);
            // Positional formats: the parser's word-count guard must
            // match the manifest.
            if (entry.words >= 0 &&
                std::string(role) == "parser") {
                const std::vector<FullTok> &toks = tokIt->second;
                const auto isP = [&](std::size_t i, const char *p) {
                    return i < toks.size() && toks[i].kind == 'p' &&
                           toks[i].text == p;
                };
                for (std::size_t k = sym->bodyBegin;
                     k + 7 < toks.size() && k < sym->bodyEnd; ++k) {
                    if (toks[k].kind == 'i' && isP(k + 1, ".") &&
                        toks[k + 2].kind == 'i' &&
                        toks[k + 2].text == "size" &&
                        isP(k + 3, "(") && isP(k + 4, ")") &&
                        isP(k + 5, "!") && isP(k + 6, "=") &&
                        toks[k + 7].kind == 'n') {
                        long n = -1;
                        try {
                            n = std::stol(toks[k + 7].text);
                        } catch (const std::exception &) {
                            continue;
                        }
                        if (n != entry.words)
                            out.push_back(
                                {file, toks[k].line, "R12",
                                 "schema '" + entry.tag +
                                     "': parser '" + fn +
                                     "' checks for " +
                                     std::to_string(n) +
                                     " words but the manifest "
                                     "pins " +
                                     std::to_string(entry.words) +
                                     " -- bump the schema version "
                                     "or update schemas.json"});
                    }
                }
            }
        };
        side(entry.writerFile, entry.writerFunction,
             entry.writerFields, "writer");
        side(entry.parserFile, entry.parserFunction,
             entry.parserFields, "parser");
    }
    return out;
}

std::map<std::string, std::string>
loadTextDocs(const std::string &root, const SchemaManifest &manifest)
{
    namespace fs = std::filesystem;
    std::map<std::string, std::string> docs;
    for (const SchemaEntry &entry : manifest.entries) {
        if (!entry.textMode)
            continue;
        for (const std::string &rel :
             {entry.writerFile, entry.parserFile}) {
            if (docs.count(rel))
                continue;
            std::ifstream in(fs::path(root) / rel, std::ios::binary);
            if (!in)
                continue; // absent: checkSchemas reports it
            std::ostringstream text;
            text << in.rdbuf();
            docs[rel] = text.str();
        }
    }
    return docs;
}

} // namespace lint
} // namespace rsin
