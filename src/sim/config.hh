/**
 * @file
 * Typed key/value configuration store with defaults, used to describe
 * machine parameters (Table 1 of the paper) and experiment settings.
 */

#ifndef SOFTWATT_SIM_CONFIG_HH
#define SOFTWATT_SIM_CONFIG_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace softwatt
{

/**
 * A flat map of string keys to scalar values.
 *
 * Values are stored as strings and converted on read; readers supply
 * the default that applies when the key is absent, so a Config never
 * needs a schema. Unknown-key detection is available for validating
 * user-supplied overrides.
 */
class Config
{
  public:
    Config() = default;

    /** Set a value, overwriting any existing one. */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, std::int64_t value);
    void set(const std::string &key, double value);
    void set(const std::string &key, bool value);

    /** True if the key has been set. */
    bool has(const std::string &key) const;

    /** Read with a default; fatal() on malformed values. */
    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /**
     * getInt for int-typed settings: fatal(), naming the key, when the
     * value does not fit in an int, instead of wrapping it silently.
     */
    int getNarrowInt(const std::string &key, int def) const;

    /**
     * Parse a "key=value" assignment into the store.
     * @return false if the text is not of that shape.
     */
    bool parseAssignment(const std::string &text);

    /** Merge another config on top of this one (other wins). */
    void merge(const Config &other);

    /** All keys in sorted order. */
    std::vector<std::string> keys() const;

    /**
     * Keys that were set but never read by any getX(), in sorted
     * order. Reads are tracked across the Config's whole lifetime,
     * so consumers that read their keys before asking are never
     * reported; what remains is almost always a typo.
     */
    std::vector<std::string> unusedKeys() const;

  private:
    std::map<std::string, std::string> values;

    /** Keys ever passed to a getX() read (even if absent then). */
    mutable std::set<std::string> readKeys;
};

} // namespace softwatt

#endif // SOFTWATT_SIM_CONFIG_HH
