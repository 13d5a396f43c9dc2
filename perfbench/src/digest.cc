#include "digest.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench
{

namespace
{

std::uint32_t
fold(std::uint64_t h)
{
    return std::uint32_t(h ^ (h >> 32));
}

std::string
hex32(std::uint32_t value)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", value);
    return buf;
}

/**
 * Split the top level of a JSON object into (key, value text)
 * members. Tracks strings and nesting only; the input is our own
 * JsonWriter output, so no validation is attempted.
 */
std::vector<std::pair<std::string, std::string>>
topLevelMembers(const std::string &json)
{
    std::vector<std::pair<std::string, std::string>> members;
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    std::string key;
    std::size_t key_start = 0;
    std::size_t value_start = std::string::npos;
    for (std::size_t i = 0; i < json.size(); ++i) {
        char c = json[i];
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"') {
                in_string = false;
                if (depth == 1 && value_start == std::string::npos)
                    key = json.substr(key_start, i - key_start);
            }
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            key_start = i + 1;
            break;
          case ':':
            if (depth == 1 && value_start == std::string::npos)
                value_start = i + 1;
            break;
          case '{':
          case '[':
            ++depth;
            break;
          case '}':
          case ']':
            if (depth == 1 && value_start != std::string::npos) {
                members.emplace_back(
                    key, json.substr(value_start, i - value_start));
                value_start = std::string::npos;
            }
            --depth;
            break;
          case ',':
            if (depth == 1 && value_start != std::string::npos) {
                members.emplace_back(
                    key, json.substr(value_start, i - value_start));
                value_start = std::string::npos;
            }
            break;
          default:
            break;
        }
    }
    return members;
}

/** Per-column digests of a header-first CSV. */
std::vector<std::pair<std::string, std::uint32_t>>
columnDigests(const std::string &csv)
{
    std::vector<std::string> names;
    std::vector<Fnv1a> cols;
    std::size_t pos = 0;
    bool header = true;
    while (pos < csv.size()) {
        std::size_t eol = csv.find('\n', pos);
        if (eol == std::string::npos)
            eol = csv.size();
        std::size_t col = 0;
        std::size_t cell = pos;
        while (cell <= eol) {
            std::size_t comma = csv.find(',', cell);
            if (comma == std::string::npos || comma > eol)
                comma = eol;
            if (header) {
                names.push_back(csv.substr(cell, comma - cell));
                cols.emplace_back();
            } else {
                if (col >= cols.size()) {
                    names.push_back("extra" + std::to_string(col));
                    cols.emplace_back();
                }
                cols[col].update(csv.data() + cell, comma - cell);
                cols[col].update("\n", 1);
            }
            ++col;
            cell = comma + 1;
        }
        header = false;
        pos = eol + 1;
    }
    std::vector<std::pair<std::string, std::uint32_t>> out;
    for (std::size_t i = 0; i < cols.size(); ++i)
        out.emplace_back("csv." + names[i], fold(cols[i].value()));
    return out;
}

} // namespace

RunDigest
digestRun(const std::string &runJson, const std::string &csv)
{
    RunDigest d;
    Fnv1a whole;
    whole.update(runJson);
    whole.update(csv);
    d.whole = whole.value();
    for (const auto &[key, value] : topLevelMembers(runJson)) {
        Fnv1a h;
        h.update(value);
        d.fields.emplace_back("json." + key, fold(h.value()));
    }
    for (auto &col : columnDigests(csv))
        d.fields.push_back(std::move(col));
    return d;
}

std::string
firstDifferingField(const RunDigest &expected, const RunDigest &got)
{
    std::size_t n = std::min(expected.fields.size(), got.fields.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (expected.fields[i].first != got.fields[i].first)
            return expected.fields[i].first + " (field order changed)";
        if (expected.fields[i].second != got.fields[i].second)
            return expected.fields[i].first;
    }
    if (expected.fields.size() != got.fields.size() && n > 0) {
        const auto &longer = expected.fields.size() > n ? expected
                                                        : got;
        return longer.fields[n].first + " (present on one side only)";
    }
    return "";
}

std::string
describeMismatch(const RunDigest &expected, const RunDigest &got)
{
    std::string out = "digest " + hex64(got.whole) + " != expected " +
                      hex64(expected.whole);
    std::string field = firstDifferingField(expected, got);
    out += field.empty() ? " (no per-field digests to locate it)"
                         : "; first differing field: " + field;
    return out;
}

std::string
hex64(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

bool
PinTable::load(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read pin table " + path;
        return false;
    }
    pins.clear();
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream words(line);
        std::string workload, label, whole;
        std::uint64_t seed = 0;
        if (!(words >> workload >> seed >> label >> whole) ||
            whole.size() != 16) {
            error = path + ":" + std::to_string(lineno) +
                    ": malformed pin line";
            return false;
        }
        RunDigest d;
        d.whole = std::stoull(whole, nullptr, 16);
        std::string field;
        while (words >> field) {
            std::size_t eq = field.rfind('=');
            if (eq == std::string::npos || field.size() - eq - 1 != 8) {
                error = path + ":" + std::to_string(lineno) +
                        ": malformed field digest '" + field + "'";
                return false;
            }
            d.fields.emplace_back(
                field.substr(0, eq),
                std::uint32_t(std::stoul(field.substr(eq + 1), nullptr,
                                         16)));
        }
        pins[{workload, seed, label}] = std::move(d);
    }
    return true;
}

bool
PinTable::save(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    out << "# Expected FNV-1a-64 digests of renderRunJson + sample-log "
           "CSV per run.\n"
        << "# Regenerate only with: python3 perfbench/run.py "
           "--regen-pins (and say why in CHANGES.md).\n"
        << "# <workload> <seed> <run> <digest> [<field>=<digest32> "
           "...]\n";
    for (const auto &[key, d] : pins) {
        out << std::get<0>(key) << ' ' << std::get<1>(key) << ' '
            << std::get<2>(key) << ' ' << hex64(d.whole);
        for (const auto &[name, h] : d.fields)
            out << ' ' << name << '=' << hex32(h);
        out << '\n';
    }
    out.flush();
    return bool(out);
}

const RunDigest *
PinTable::find(const std::string &workload, std::uint64_t seed,
               const std::string &label) const
{
    auto it = pins.find({workload, seed, label});
    return it == pins.end() ? nullptr : &it->second;
}

bool
PinTable::pinned(const std::string &workload, std::uint64_t seed) const
{
    auto it = pins.lower_bound({workload, seed, std::string()});
    return it != pins.end() && std::get<0>(it->first) == workload &&
           std::get<1>(it->first) == seed;
}

void
PinTable::set(const std::string &workload, std::uint64_t seed,
              const std::string &label, const RunDigest &digest)
{
    pins[{workload, seed, label}] = digest;
}

} // namespace perfbench
