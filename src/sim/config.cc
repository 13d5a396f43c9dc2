#include "config.hh"

#include <cstdlib>
#include <limits>

#include "logging.hh"

namespace softwatt
{

void
Config::set(const std::string &key, const std::string &value)
{
    values[key] = value;
}

void
Config::set(const std::string &key, std::int64_t value)
{
    values[key] = std::to_string(value);
}

void
Config::set(const std::string &key, double value)
{
    values[key] = std::to_string(value);
}

void
Config::set(const std::string &key, bool value)
{
    values[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    return values.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    readKeys.insert(key);
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    readKeys.insert(key);
    auto it = values.find(key);
    if (it == values.end())
        return def;
    char *end = nullptr;
    std::int64_t v = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        fatal(msg() << "config key '" << key << "': '" << it->second
                    << "' is not an integer");
    return v;
}

int
Config::getNarrowInt(const std::string &key, int def) const
{
    std::int64_t v = getInt(key, def);
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
        fatal(msg() << "config key '" << key << "': " << v
                    << " does not fit in an int ("
                    << std::numeric_limits<int>::min() << " to "
                    << std::numeric_limits<int>::max() << ")");
    }
    return int(v);
}

double
Config::getDouble(const std::string &key, double def) const
{
    readKeys.insert(key);
    auto it = values.find(key);
    if (it == values.end())
        return def;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal(msg() << "config key '" << key << "': '" << it->second
                    << "' is not a number");
    return v;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    readKeys.insert(key);
    auto it = values.find(key);
    if (it == values.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    fatal(msg() << "config key '" << key << "': '" << v
                << "' is not a boolean");
}

bool
Config::parseAssignment(const std::string &text)
{
    auto eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    set(text.substr(0, eq), text.substr(eq + 1));
    return true;
}

void
Config::merge(const Config &other)
{
    for (const auto &[k, v] : other.values)
        values[k] = v;
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values.size());
    for (const auto &[k, v] : values)
        out.push_back(k);
    return out;
}

std::vector<std::string>
Config::unusedKeys() const
{
    std::vector<std::string> out;
    for (const auto &[k, v] : values) {
        if (readKeys.count(k) == 0)
            out.push_back(k);
    }
    return out;
}

} // namespace softwatt
