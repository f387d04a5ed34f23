#include "output.hpp"

#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace rsin {
namespace lint {

namespace {

std::string
jsonEscape(const std::string &text)
{
    std::ostringstream out;
    for (const char c : text) {
        switch (c) {
          case '"': out << "\\\""; break;
          case '\\': out << "\\\\"; break;
          case '\n': out << "\\n"; break;
          case '\t': out << "\\t"; break;
          case '\r': out << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out << buf;
            } else {
                out << c;
            }
        }
    }
    return out.str();
}

const char kBaselineSchema[] = "rsin.lint_baseline.v1";

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog{
        {"R1", "no ambient randomness or wall-clock time (rand, "
               "random_device, system_clock, time(nullptr)) outside "
               "src/common/rng.cpp"},
        {"R2", "no std::unordered_{map,set} in src/des, src/rsin, "
               "src/exec, src/workload"},
        {"R3", "no float type or f-suffixed literals in src/ "
               "(double discipline)"},
        {"R4", "no std::cout/printf in library code; output flows "
               "through src/common/table or src/obs"},
        {"R5", "SimResult metric reads in bench/ and examples/ must be "
               "dominated by a RunStatus check in the same scope chain"},
        {"R6", "quoted includes must follow the module-layer DAG "
               "(common -> {la,logic,markov,topology} -> des -> "
               "{queueing,packet,workload,sched} -> rsin -> "
               "{exec,obs} -> {bench,examples,tools} -> tests)"},
        {"R7", "no cycles in the file-level include graph"},
        {"R8", "no common::Rng received or captured by value outside "
               "src/common (stream-forking hazard); pass Rng&, move "
               "Rng&&, or derive a child with split()"},
        {"R9", "no stale suppressions: every allow(...) must mask a "
               "live finding"},
        {"R11", "no non-reentrant calls (strtok, setenv, localtime, "
                "...) and no direct file writes (ofstream, fopen, "
                ".open) outside tests/ and common::writeFileAtomic's "
                "home src/common/fsio"},
        {"R12", "serialized writer/parser field sets must match "
                "tools/rsin_lint/schemas.json; changing emitted "
                "fields requires a schema-version bump"},
        {"SUP", "suppression comments must name known rules and carry "
                "a reason"},
    };
    return catalog;
}

std::string
formatJson(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    out << "[\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        out << "  {\"file\": \"" << jsonEscape(f.file)
            << "\", \"line\": " << f.line << ", \"rule\": \""
            << jsonEscape(f.rule) << "\", \"message\": \""
            << jsonEscape(f.message) << "\"}"
            << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return out.str();
}

std::string
formatSarif(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": \"https://raw.githubusercontent.com/"
           "oasis-tcs/sarif-spec/master/Schemata/"
           "sarif-schema-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"rsin-lint\",\n"
        << "          \"version\": \"4.0.0\",\n"
        << "          \"rules\": [\n";
    const auto &catalog = ruleCatalog();
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        out << "            {\"id\": \"" << catalog[i].id
            << "\", \"shortDescription\": {\"text\": \""
            << jsonEscape(catalog[i].summary) << "\"}}"
            << (i + 1 < catalog.size() ? "," : "") << "\n";
    }
    out << "          ]\n"
        << "        }\n"
        << "      },\n"
        << "      \"results\": [\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        // Full region when the rule recorded a span; findings that
        // only know their line still highlight that whole line
        // (endLine == startLine, no columns).
        out << "        {\"ruleId\": \"" << jsonEscape(f.rule)
            << "\", \"level\": \"error\", \"message\": {\"text\": \""
            << jsonEscape(f.message) << "\"}, \"locations\": "
            << "[{\"physicalLocation\": {\"artifactLocation\": "
            << "{\"uri\": \"" << jsonEscape(f.file)
            << "\"}, \"region\": {\"startLine\": " << f.line;
        if (f.column > 0)
            out << ", \"startColumn\": " << f.column;
        out << ", \"endLine\": "
            << (f.endLine >= f.line ? f.endLine : f.line);
        if (f.endColumn > f.column && f.column > 0)
            out << ", \"endColumn\": " << f.endColumn;
        out << "}}}]}" << (i + 1 < findings.size() ? "," : "")
            << "\n";
    }
    out << "      ]\n"
        << "    }\n"
        << "  ]\n"
        << "}\n";
    return out.str();
}

std::string
emitBaseline(const std::vector<Finding> &findings)
{
    std::map<std::pair<std::string, std::string>, std::size_t> counts;
    for (const Finding &f : findings)
        ++counts[{f.file, f.rule}];
    std::ostringstream out;
    out << "{\n  \"schema\": \"" << kBaselineSchema
        << "\",\n  \"entries\": [\n";
    std::size_t i = 0;
    for (const auto &entry : counts) {
        out << "    {\"file\": \"" << jsonEscape(entry.first.first)
            << "\", \"rule\": \"" << jsonEscape(entry.first.second)
            << "\", \"count\": " << entry.second << "}"
            << (++i < counts.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
}

Baseline
parseBaseline(const std::string &json)
{
    using Kind = obs::JsonValue::Kind;
    const obs::JsonValue doc = obs::parseJson(json);
    if (doc.kind != Kind::Object)
        throw std::runtime_error(
            "baseline: top-level value must be an object");
    const obs::JsonValue *schema = doc.find("schema");
    if (schema == nullptr || schema->kind != Kind::String ||
        schema->text != kBaselineSchema)
        throw std::runtime_error(
            std::string("baseline: missing or unsupported schema "
                        "(expected \"") + kBaselineSchema + "\")");
    const obs::JsonValue *entries = doc.find("entries");
    if (entries == nullptr || entries->kind != Kind::Array)
        throw std::runtime_error(
            "baseline: missing \"entries\" array");
    Baseline baseline;
    for (const obs::JsonValue &entry : entries->items) {
        if (entry.kind != Kind::Object)
            throw std::runtime_error(
                "baseline: every entry must be an object");
        const obs::JsonValue *file = entry.find("file");
        const obs::JsonValue *rule = entry.find("rule");
        const obs::JsonValue *count = entry.find("count");
        if (file == nullptr || file->kind != Kind::String ||
            rule == nullptr || rule->kind != Kind::String ||
            count == nullptr || count->kind != Kind::Number ||
            count->number < 0)
            throw std::runtime_error(
                "baseline: entries need a file (string), rule "
                "(string) and count (non-negative number)");
        baseline.allowed[{file->text, rule->text}] +=
            static_cast<std::size_t>(count->number);
    }
    return baseline;
}

std::vector<Finding>
applyBaseline(std::vector<Finding> findings, const Baseline &baseline,
              std::size_t *baselined, std::size_t *slack)
{
    std::map<std::pair<std::string, std::string>, std::size_t> budget =
        baseline.allowed;
    std::vector<Finding> kept;
    std::size_t dropped = 0;
    for (Finding &f : findings) {
        const auto it = budget.find({f.file, f.rule});
        if (it != budget.end() && it->second > 0) {
            --it->second;
            ++dropped;
            continue;
        }
        kept.push_back(std::move(f));
    }
    if (baselined)
        *baselined = dropped;
    if (slack) {
        *slack = 0;
        for (const auto &entry : budget)
            *slack += entry.second;
    }
    return kept;
}

} // namespace lint
} // namespace rsin
