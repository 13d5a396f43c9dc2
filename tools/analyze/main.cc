/**
 * @file
 * softwatt-analyze entry point: the repo's one source checker.
 *
 *   softwatt-analyze [--suppressions FILE] [--json=FILE]
 *                    [--experiments FILE] ROOT...
 *
 * All .cc/.hh/.cpp/.hpp/.h files under each ROOT are checked against
 * the determinism linter's token rules (tools/lint, file by file) and
 * the whole-program contract rules (analyze.hh, all files together:
 * a class declared in src/mem/cache.hh is checked against bodies
 * defined in src/mem/cache.cc). Findings are printed as
 * "path:line: [rule] message", sorted by path, line and rule, and the
 * exit status is nonzero when any finding survives the suppressions.
 * Paths are relative to the parent of ROOT, so running from anywhere
 * over the repo's src bench examples yields repo-relative paths — the
 * form the suppression file and the path-scoped rules match against.
 *
 * --suppressions FILE reads the "<path> <rule>" list
 * (common/scanner.hh); entries that silenced nothing are reported as
 * warnings so the list stays short and current. --experiments FILE
 * points at EXPERIMENTS.md for the config-key documentation check
 * (omitting it disables that half of the rule). --json=FILE writes
 * surviving findings one JSON object per line.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analyze/analyze.hh"
#include "common/scanner.hh"
#include "lint/softwatt_lint.hh"

namespace fs = std::filesystem;
namespace tools = softwatt::tools;
using softwatt::analyze::AnalyzerInput;
using softwatt::analyze::SourceText;
using tools::Finding;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--suppressions FILE] [--json=FILE] "
                 "[--experiments FILE] ROOT...\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<fs::path> roots;
    tools::Suppressions suppressions;
    std::string json_path;
    std::string experiments_path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--suppressions") {
            if (++i >= argc)
                return usage(argv[0]);
            std::string text;
            if (!tools::readFile(argv[i], text)) {
                std::fprintf(stderr, "%s: cannot read %s\n", argv[0],
                             argv[i]);
                return 2;
            }
            std::string error;
            if (!suppressions.parse(text, error)) {
                std::fprintf(stderr, "%s: %s: %s\n", argv[0],
                             argv[i], error.c_str());
                return 2;
            }
        } else if (arg == "--experiments") {
            if (++i >= argc)
                return usage(argv[0]);
            experiments_path = argv[i];
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(std::strlen("--json="));
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            roots.emplace_back(arg);
        }
    }
    if (roots.empty())
        return usage(argv[0]);

    std::vector<tools::ScanFile> files;
    std::string walk_error;
    if (!tools::collectFiles(roots, files, walk_error)) {
        std::fprintf(stderr, "%s: %s\n", argv[0],
                     walk_error.c_str());
        return 2;
    }

    AnalyzerInput input;
    for (const tools::ScanFile &file : files) {
        SourceText source;
        source.path = file.repoRel;
        if (!tools::readFile(file.full, source.text)) {
            std::fprintf(stderr, "%s: cannot read %s\n", argv[0],
                         file.full.string().c_str());
            return 2;
        }
        input.files.push_back(std::move(source));
    }
    if (!experiments_path.empty() &&
        !tools::readFile(experiments_path, input.experimentsDoc)) {
        std::fprintf(stderr, "%s: cannot read %s\n", argv[0],
                     experiments_path.c_str());
        return 2;
    }

    std::vector<Finding> findings =
        softwatt::analyze::analyzeSources(input);
    suppressions.apply(findings);
    for (const SourceText &source : input.files) {
        for (Finding &f : softwatt::lint::lintSource(
                 source.path, source.text, suppressions)) {
            findings.push_back(std::move(f));
        }
    }
    std::sort(findings.begin(), findings.end(), tools::findingLess);

    for (const Finding &f : findings) {
        std::printf("%s:%d: [%s] %s\n", f.path.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        tools::writeFindingsJson(out, "softwatt-analyze", findings);
        if (!out.flush()) {
            std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                         json_path.c_str());
            return 2;
        }
    }

    for (const std::string &entry : suppressions.unusedEntries()) {
        std::fprintf(stderr,
                     "softwatt-analyze: warning: unused suppression "
                     "entry '%s' (nothing left to silence; remove it "
                     "from the suppressions file)\n",
                     entry.c_str());
    }

    if (!findings.empty()) {
        std::fprintf(stderr,
                     "softwatt-analyze: %zu finding(s) in %zu "
                     "file(s) scanned\n",
                     findings.size(), files.size());
        return 1;
    }
    return 0;
}
