/**
 * @file
 * Shared infrastructure for the repo's source rules (the linter's
 * token rules and the analyzer's whole-program rules, both run by
 * softwatt-analyze): file walking, comment/string masking, the
 * checked-in suppression list, and the common finding record with
 * its text and JSON emission formats.
 *
 * Both rule sets are deliberately token-based rather than AST-based: the
 * constructs they check are identifiable after comments and string
 * literals are masked out, which keeps them dependency-free and fast
 * enough to run on every build.
 */

#ifndef SOFTWATT_TOOLS_COMMON_SCANNER_HH
#define SOFTWATT_TOOLS_COMMON_SCANNER_HH

#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

namespace softwatt::tools
{

/** One rule violation at a source location. */
struct Finding
{
    std::string path;   ///< Repo-relative path of the file.
    int line = 0;       ///< 1-based line number.
    std::string rule;   ///< Stable rule name (for suppressions).
    std::string message;
};

/** Sort key: path, then line, then rule. */
bool findingLess(const Finding &a, const Finding &b);

/**
 * Checked-in suppression list: one "path rule" pair per line,
 * '#' starts a comment. A suppressed (path, rule) pair silences
 * every finding of that rule in that file.
 *
 * Application tracks which entries actually silenced a finding, so
 * tools can warn about stale entries that no longer match anything.
 */
class Suppressions
{
  public:
    /** Parse suppression-file text. Returns false on a bad line. */
    bool parse(const std::string &text, std::string &error);

    /**
     * Drop every suppressed finding from @p findings, marking the
     * matching entries as used. Returns the number removed.
     */
    std::size_t apply(std::vector<Finding> &findings) const;

    /** Pure query: is (path, rule) listed? Does not mark entries. */
    bool suppressed(const std::string &path,
                    const std::string &rule) const;

    /** Entries that never matched a finding, as "path rule" text. */
    std::vector<std::string> unusedEntries() const;

    std::size_t size() const { return entries.size(); }

  private:
    struct Entry
    {
        std::string path;
        std::string rule;
        mutable bool used = false;
    };

    std::vector<Entry> entries;
};

/**
 * Replace the contents of comments and string/character literals
 * with spaces, preserving newlines so line numbers survive. Handles
 * //, block comments, "..." and '...' with escapes, and R"(...)"
 * raw strings.
 */
std::string maskCommentsAndStrings(const std::string &source);

/** True at identifier characters ([A-Za-z0-9_]). */
bool identChar(char c);

/** 1-based line number of byte offset @p pos in @p text. */
int lineOfOffset(const std::string &text, std::size_t pos);

/** One file selected for scanning. */
struct ScanFile
{
    std::string repoRel;        ///< '/'-separated repo-relative path.
    std::filesystem::path full; ///< On-disk path for reading.
};

/** True for the C++ source extensions the scanners understand. */
bool scannableFile(const std::filesystem::path &p);

/**
 * Walk every ROOT in @p roots and collect the scannable files,
 * sorted by repo-relative path so output order never depends on
 * directory-iteration order. Repo-relative paths are formed against
 * the parent of each ROOT ("src/..." when ROOT is "src"). Returns
 * false and sets @p error when a ROOT is not a directory or the walk
 * fails.
 */
bool collectFiles(const std::vector<std::filesystem::path> &roots,
                  std::vector<ScanFile> &out, std::string &error);

/** Slurp a file. Returns false when it cannot be opened. */
bool readFile(const std::filesystem::path &p, std::string &out);

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &text);

/**
 * Emit findings machine-readably: one JSON object per line
 * ({"tool":..., "path":..., "line":N, "rule":..., "message":...}),
 * in the order given, so CI can annotate findings.
 */
void writeFindingsJson(std::ostream &out, const std::string &tool,
                       const std::vector<Finding> &findings);

} // namespace softwatt::tools

#endif // SOFTWATT_TOOLS_COMMON_SCANNER_HH
