#include "analyze.hh"

#include <algorithm>
#include <cctype>
#include <optional>

namespace softwatt::analyze
{

using tools::identChar;
using tools::lineOfOffset;
using tools::maskCommentsAndStrings;

namespace
{

// ---------------------------------------------------------------
// Small text utilities over masked source.
// ---------------------------------------------------------------

std::size_t
skipWs(const std::string &text, std::size_t pos)
{
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
        ++pos;
    }
    return pos;
}

/** Identifier starting at @p pos ("" when none). */
std::string
identAt(const std::string &text, std::size_t pos)
{
    std::size_t end = pos;
    while (end < text.size() && identChar(text[end]))
        ++end;
    return text.substr(pos, end - pos);
}

/** Identifier ending just before @p pos ("" when none). */
std::string
identBefore(const std::string &text, std::size_t pos)
{
    std::size_t start = pos;
    while (start > 0 && identChar(text[start - 1]))
        --start;
    return text.substr(start, pos - start);
}

bool
boundaryAt(const std::string &text, std::size_t pos, std::size_t len)
{
    if (pos > 0 && identChar(text[pos - 1]))
        return false;
    std::size_t end = pos + len;
    return end >= text.size() || !identChar(text[end]);
}

/** Find the next boundary-matched occurrence of @p word. */
std::size_t
findWord(const std::string &text, const std::string &word,
         std::size_t from)
{
    std::size_t pos = from;
    while ((pos = text.find(word, pos)) != std::string::npos) {
        if (boundaryAt(text, pos, word.size()))
            return pos;
        pos += word.size();
    }
    return std::string::npos;
}

/**
 * Offset of the matching close for the open bracket at @p open
 * (masked text, so literals cannot confuse the count); npos when
 * unbalanced.
 */
std::size_t
matchBracket(const std::string &text, std::size_t open)
{
    char oc = text[open];
    char cc = oc == '(' ? ')' : oc == '{' ? '}' : ']';
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == oc)
            ++depth;
        else if (text[i] == cc && --depth == 0)
            return i;
    }
    return std::string::npos;
}

bool
containsWord(const std::string &text, const std::string &word)
{
    return findWord(text, word, 0) != std::string::npos;
}

std::string
trim(const std::string &text)
{
    std::size_t b = 0, e = text.size();
    while (b < e &&
           std::isspace(static_cast<unsigned char>(text[b])))
        ++b;
    while (e > b &&
           std::isspace(static_cast<unsigned char>(text[e - 1])))
        --e;
    return text.substr(b, e - b);
}

bool
startsWithWord(const std::string &stmt, const std::string &word)
{
    std::string t = trim(stmt);
    return t.compare(0, word.size(), word) == 0 &&
           (t.size() == word.size() || !identChar(t[word.size()]));
}

// ---------------------------------------------------------------
// Parsed structure.
// ---------------------------------------------------------------

/** The ChunkWriter/ChunkReader value methods (identical on purpose). */
const std::set<std::string> &
valueMethods()
{
    static const std::set<std::string> methods = {
        "u8", "u16", "u32", "u64", "varint", "b", "f64", "str"};
    return methods;
}

/** Stream methods that move no checkpoint data; never sequenced. */
const std::set<std::string> &
neutralMethods()
{
    static const std::set<std::string> methods = {
        "finish", "remaining", "bytes", "reserve"};
    return methods;
}

/** One element of a save or load call sequence. */
struct SeqCall
{
    std::string type;  ///< u8/u16/u32/u64/varint/b/f64/str or "sub".
    int line = 0;
};

/** One saveState/loadState (or saveX/loadX helper) body. */
struct BodyInfo
{
    bool found = false;
    std::string path;
    int line = 0;             ///< Line of the function name.
    std::string maskedBody;   ///< Text between the body braces.
    std::vector<SeqCall> calls;
};

struct MemberInfo
{
    std::string name;
    std::string path;         ///< File declaring the member.
    int line = 0;
    bool annotated = false;   ///< Carries "ckpt:derived".
};

struct ClassRecord
{
    std::string name;
    std::string defPath;
    int defLine = 0;
    bool declaresSave = false;
    bool declaresLoad = false;
    std::vector<MemberInfo> members;
    BodyInfo save;
    BodyInfo load;
};

/** A literal configuration key read somewhere in src/. */
struct KeySite
{
    std::string key;
    std::string path;
    int line = 0;
    bool runnerKey = false;   ///< Read inside a fromArgs body.
};

struct FileData
{
    std::string path;
    std::string raw;
    std::string masked;
    std::vector<std::string> rawLines;
};

// ---------------------------------------------------------------
// Layer DAG.
// ---------------------------------------------------------------

std::string
layerOf(const std::string &path)
{
    if (path.compare(0, 4, "src/") != 0)
        return "";
    std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos)
        return "";
    return path.substr(4, slash - 4);
}

// ---------------------------------------------------------------
// Class parsing.
// ---------------------------------------------------------------

const std::set<std::string> &
nonMemberLeaders()
{
    static const std::set<std::string> words = {
        "using",    "typedef", "friend",   "static", "constexpr",
        "template", "enum",    "class",    "struct", "union",
        "public",   "private", "protected"};
    return words;
}

/**
 * Split a declarator list on top-level commas (angle brackets,
 * parens, brackets and braces nested inside are opaque).
 */
std::vector<std::string>
splitTopLevel(const std::string &text)
{
    std::vector<std::string> parts;
    int round = 0, square = 0, curly = 0, angle = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        switch (text[i]) {
          case '(': ++round; break;
          case ')': --round; break;
          case '[': ++square; break;
          case ']': --square; break;
          case '{': ++curly; break;
          case '}': --curly; break;
          case '<': ++angle; break;
          case '>': angle = std::max(0, angle - 1); break;
          case ',':
            if (!round && !square && !curly && !angle) {
                parts.push_back(text.substr(start, i - start));
                start = i + 1;
            }
            break;
        }
    }
    parts.push_back(text.substr(start));
    return parts;
}

/**
 * Extract the member name from one declarator ("std::vector<Line>
 * lines", "Addr tag" after init stripping). Returns "" for
 * declarators that are not checkable state (references, unnamed).
 */
std::string
memberNameOf(const std::string &declarator)
{
    std::string text = declarator;
    // Array extents carry no name.
    for (std::size_t b; (b = text.find('[')) != std::string::npos;) {
        std::size_t e = text.find(']', b);
        if (e == std::string::npos)
            break;
        text.erase(b, e - b + 1);
    }
    // Reference members are constructor-wired plumbing, not state
    // a checkpoint could restore; skip them.
    if (text.find('&') != std::string::npos)
        return "";
    std::size_t end = text.size();
    while (end > 0 && !identChar(text[end - 1]))
        --end;
    if (end == 0)
        return "";
    std::string name = identBefore(text, end);
    if (name.empty() ||
        std::isdigit(static_cast<unsigned char>(name[0])))
        return "";
    return name;
}

/**
 * Parse one class body (masked text between its braces) into
 * members and save/load declaration flags. Inline bodies are left
 * for the separate function-definition scan.
 */
void
parseClassBody(const FileData &file, std::size_t open,
               std::size_t close, ClassRecord &record)
{
    const std::string &masked = file.masked;
    std::size_t i = open + 1;
    std::size_t stmtStart = i;

    auto finishStatement = [&](std::size_t stmtEnd) {
        std::string stmt =
            masked.substr(stmtStart, stmtEnd - stmtStart);
        std::string trimmed = trim(stmt);
        if (trimmed.empty())
            return;
        if (containsWord(trimmed, "saveState") &&
            containsWord(trimmed, "ChunkWriter")) {
            record.declaresSave = true;
        }
        if (containsWord(trimmed, "loadState") &&
            containsWord(trimmed, "ChunkReader")) {
            record.declaresLoad = true;
        }
        for (const std::string &word : nonMemberLeaders()) {
            if (startsWithWord(trimmed, word))
                return;
        }
        if (trimmed.find("operator") != std::string::npos ||
            trimmed.find('~') != std::string::npos)
            return;
        // A '(' before any '='/'{' marks a function declarator.
        std::size_t paren = trimmed.find('(');
        std::size_t eq = trimmed.find('=');
        std::size_t brace = trimmed.find('{');
        std::size_t init = std::min(eq, brace);
        if (paren != std::string::npos && paren < init)
            return;
        // Strip the default initializer, then split declarators.
        if (init != std::string::npos)
            trimmed.erase(init);
        for (const std::string &declarator :
             splitTopLevel(trimmed)) {
            std::string name = memberNameOf(declarator);
            if (name.empty())
                continue;
            MemberInfo member;
            member.name = name;
            member.path = file.path;
            // Line of the declarator's end (the name's line for
            // single-line members, which all of ours are).
            std::size_t nameAt =
                masked.rfind(name, stmtEnd);
            member.line = lineOfOffset(
                masked, nameAt == std::string::npos ? stmtStart
                                                    : nameAt);
            int above = member.line - 1;
            auto annotatedLine = [&](int lineno) {
                return lineno >= 1 &&
                       lineno <= int(file.rawLines.size()) &&
                       file.rawLines[std::size_t(lineno - 1)].find(
                           "ckpt:derived") != std::string::npos;
            };
            member.annotated =
                annotatedLine(member.line) || annotatedLine(above);
            record.members.push_back(std::move(member));
        }
    };

    while (i < close) {
        char c = masked[i];
        if (c == ';') {
            finishStatement(i);
            stmtStart = ++i;
            continue;
        }
        if (c == ':') {
            // Access specifier? (":" of "::" and of base clauses
            // never appears statement-initial like this.)
            std::string t =
                trim(masked.substr(stmtStart, i - stmtStart));
            bool doubled = (i + 1 < close && masked[i + 1] == ':') ||
                           (i > 0 && masked[i - 1] == ':');
            if (!doubled && (t == "public" || t == "private" ||
                             t == "protected")) {
                stmtStart = i + 1;
            }
            ++i;
            continue;
        }
        if (c == '{') {
            std::string stmt =
                masked.substr(stmtStart, i - stmtStart);
            std::string trimmed = trim(stmt);
            std::size_t end = matchBracket(masked, i);
            if (end == std::string::npos || end > close)
                break;
            bool nestedType = startsWithWord(trimmed, "struct") ||
                              startsWithWord(trimmed, "class") ||
                              startsWithWord(trimmed, "enum") ||
                              startsWithWord(trimmed, "union");
            std::size_t paren = trimmed.find('(');
            std::size_t eq = trimmed.find('=');
            bool functionBody =
                !nestedType && paren != std::string::npos &&
                (eq == std::string::npos || paren < eq);
            if (functionBody) {
                // Check for inline save/load declarations before
                // discarding the statement.
                finishStatement(i);
                i = end + 1;
                stmtStart = i;
            } else if (nestedType) {
                // Skip the nested type's body and its trailing
                // declarator/semicolon without recording members.
                i = end + 1;
                std::size_t semi = masked.find(';', i);
                i = semi == std::string::npos ? close : semi + 1;
                stmtStart = i;
            } else {
                // Brace initializer: part of the member statement.
                i = end + 1;
            }
            continue;
        }
        ++i;
    }
}

/** Scan one file for class/struct definitions. */
void
scanClasses(const FileData &file,
            std::map<std::string, ClassRecord> &classes,
            std::vector<std::pair<std::size_t, std::size_t>>
                &classRanges,
            std::map<std::string, std::string> &classAtRange)
{
    const std::string &masked = file.masked;
    for (const char *keyword : {"class", "struct"}) {
        std::size_t pos = 0;
        while ((pos = findWord(masked, keyword, pos)) !=
               std::string::npos) {
            std::size_t at = pos;
            pos += std::char_traits<char>::length(keyword);
            // "enum class"/"enum struct" define scoped enums, not
            // record types: walk back over whitespace to check.
            std::size_t back = at;
            while (back > 0 &&
                   std::isspace(
                       static_cast<unsigned char>(masked[back - 1])))
                --back;
            if (identBefore(masked, back) == "enum")
                continue;
            std::size_t nameAt = skipWs(masked, pos);
            std::string name = identAt(masked, nameAt);
            if (name.empty())
                continue;
            std::size_t after = skipWs(masked, nameAt + name.size());
            if (after >= masked.size())
                continue;
            // Only "X {" and "X : bases {" start a definition.
            if (masked[after] == ':' &&
                (after + 1 >= masked.size() ||
                 masked[after + 1] != ':')) {
                std::size_t brace = masked.find('{', after);
                std::size_t semi = masked.find(';', after);
                if (brace == std::string::npos ||
                    (semi != std::string::npos && semi < brace))
                    continue;
                after = brace;
            }
            if (masked[after] != '{')
                continue;
            std::size_t close = matchBracket(masked, after);
            if (close == std::string::npos)
                continue;
            ClassRecord &record = classes[name];
            if (record.name.empty()) {
                record.name = name;
                record.defPath = file.path;
                record.defLine = lineOfOffset(masked, at);
            }
            parseClassBody(file, after, close, record);
            classRanges.emplace_back(after, close);
            classAtRange[std::to_string(after)] = name;
        }
    }
}

// ---------------------------------------------------------------
// saveState/loadState (and saveX/loadX helper) body scanning.
// ---------------------------------------------------------------

/** Extract the sequenced calls a body makes on @p param. */
std::vector<SeqCall>
extractCalls(const std::string &masked, std::size_t bodyBegin,
             std::size_t bodyEnd, const std::string &param)
{
    std::vector<SeqCall> calls;
    std::size_t pos = bodyBegin;
    while ((pos = findWord(masked, param, pos)) !=
               std::string::npos &&
           pos < bodyEnd) {
        std::size_t after = pos + param.size();
        SeqCall call;
        call.line = lineOfOffset(masked, pos);
        std::size_t dot = skipWs(masked, after);
        if (dot < bodyEnd && masked[dot] == '.') {
            std::size_t methodAt = skipWs(masked, dot + 1);
            std::string method = identAt(masked, methodAt);
            std::size_t paren =
                skipWs(masked, methodAt + method.size());
            bool isCall =
                paren < bodyEnd && masked[paren] == '(';
            if (isCall && valueMethods().count(method)) {
                call.type = method;
                calls.push_back(call);
                pos = paren;
                continue;
            }
            if (isCall && neutralMethods().count(method)) {
                pos = paren;
                continue;
            }
        }
        // The stream is handed to something else (a nested
        // saveState/loadState, a helper): a delegation slot.
        call.type = "sub";
        calls.push_back(call);
        pos = after;
    }
    return calls;
}

/**
 * Scan one file for definitions of saveState/loadState members and
 * saveX/loadX free helpers taking a ChunkWriter/ChunkReader.
 * @p helperPairs maps (path, suffix) -> [saveBody, loadBody].
 */
void
scanBodies(
    const FileData &file,
    const std::vector<std::pair<std::size_t, std::size_t>>
        &classRanges,
    const std::map<std::string, std::string> &classAtRange,
    std::map<std::string, ClassRecord> &classes,
    std::map<std::string, std::pair<BodyInfo, BodyInfo>>
        &helperPairs)
{
    const std::string &masked = file.masked;
    for (bool isSave : {true, false}) {
        const std::string streamType =
            isSave ? "ChunkWriter" : "ChunkReader";
        const std::string prefix = isSave ? "save" : "load";
        std::size_t pos = 0;
        while ((pos = masked.find(prefix, pos)) !=
               std::string::npos) {
            std::size_t at = pos;
            pos += prefix.size();
            if (at > 0 && identChar(masked[at - 1]))
                continue;
            std::string name = identAt(masked, at);
            if (name == prefix)
                continue;  // bare "save(" is not ours
            std::size_t paren = skipWs(masked, at + name.size());
            if (paren >= masked.size() || masked[paren] != '(')
                continue;
            std::size_t closeParen = matchBracket(masked, paren);
            if (closeParen == std::string::npos)
                continue;
            std::string signature = masked.substr(
                paren, closeParen - paren + 1);
            std::size_t typeAt = findWord(signature, streamType, 0);
            if (typeAt == std::string::npos)
                continue;
            // Param name: the identifier after "ChunkWriter &".
            std::size_t cursor = typeAt + streamType.size();
            cursor = skipWs(signature, cursor);
            while (cursor < signature.size() &&
                   (signature[cursor] == '&' ||
                    std::isspace(static_cast<unsigned char>(
                        signature[cursor]))))
                ++cursor;
            std::string param = identAt(signature, cursor);
            if (param.empty())
                continue;
            // Definition or mere declaration?
            std::size_t tail = closeParen + 1;
            while (tail < masked.size()) {
                std::size_t w = skipWs(masked, tail);
                std::string word = identAt(masked, w);
                if (word == "const" || word == "override" ||
                    word == "noexcept" || word == "final") {
                    tail = w + word.size();
                    continue;
                }
                tail = w;
                break;
            }
            if (tail >= masked.size() || masked[tail] != '{')
                continue;
            std::size_t bodyEnd = matchBracket(masked, tail);
            if (bodyEnd == std::string::npos)
                continue;

            BodyInfo body;
            body.found = true;
            body.path = file.path;
            body.line = lineOfOffset(masked, at);
            body.maskedBody =
                masked.substr(tail + 1, bodyEnd - tail - 1);
            body.calls =
                extractCalls(masked, tail + 1, bodyEnd, param);

            // Owner: "Class::saveState" qualification, else the
            // enclosing class body for inline definitions.
            std::string owner;
            if (at >= 2 && masked[at - 1] == ':' &&
                masked[at - 2] == ':') {
                owner = identBefore(masked, at - 2);
            } else {
                for (const auto &[open, close] : classRanges) {
                    if (at > open && at < close) {
                        auto it = classAtRange.find(
                            std::to_string(open));
                        if (it != classAtRange.end())
                            owner = it->second;
                        break;
                    }
                }
            }

            if (name == (isSave ? "saveState" : "loadState")) {
                if (owner.empty())
                    continue;
                ClassRecord &record = classes[owner];
                if (record.name.empty()) {
                    record.name = owner;
                    record.defPath = file.path;
                    record.defLine = body.line;
                }
                BodyInfo &slot = isSave ? record.save : record.load;
                if (!slot.found)
                    slot = std::move(body);
            } else if (owner.empty()) {
                // Free helper saveX/loadX: pair by file + suffix.
                std::string suffix = name.substr(prefix.size());
                auto &pair = helperPairs[file.path + "#" + suffix];
                BodyInfo &slot = isSave ? pair.first : pair.second;
                if (!slot.found)
                    slot = std::move(body);
            }
            pos = bodyEnd;
        }
    }
}

// ---------------------------------------------------------------
// Config-key scanning.
// ---------------------------------------------------------------

/** Read the string literal at @p pos of RAW text, if one starts. */
std::optional<std::string>
literalAt(const std::string &raw, std::size_t pos)
{
    if (pos >= raw.size() || raw[pos] != '"')
        return std::nullopt;
    std::size_t end = raw.find('"', pos + 1);
    if (end == std::string::npos)
        return std::nullopt;
    return raw.substr(pos + 1, end - pos - 1);
}

/** [begin,end) offset ranges of fromArgs function bodies. */
std::vector<std::pair<std::size_t, std::size_t>>
fromArgsRanges(const std::string &masked)
{
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    std::size_t pos = 0;
    while ((pos = findWord(masked, "fromArgs", pos)) !=
           std::string::npos) {
        std::size_t paren = skipWs(masked, pos + 8);
        pos += 8;
        if (paren >= masked.size() || masked[paren] != '(')
            continue;
        std::size_t closeParen = matchBracket(masked, paren);
        if (closeParen == std::string::npos)
            continue;
        std::size_t brace = skipWs(masked, closeParen + 1);
        if (brace >= masked.size() || masked[brace] != '{')
            continue;
        std::size_t end = matchBracket(masked, brace);
        if (end == std::string::npos)
            continue;
        ranges.emplace_back(brace, end);
    }
    return ranges;
}

void
scanConfigKeys(const FileData &file, std::vector<KeySite> &sites)
{
    const std::string &masked = file.masked;
    const std::string &raw = file.raw;
    auto ranges = fromArgsRanges(masked);
    auto inFromArgs = [&ranges](std::size_t at) {
        for (const auto &[b, e] : ranges) {
            if (at > b && at < e)
                return true;
        }
        return false;
    };
    auto record = [&](const std::string &key, std::size_t at) {
        KeySite site;
        site.key = key;
        site.path = file.path;
        site.line = lineOfOffset(masked, at);
        site.runnerKey = inFromArgs(at);
        sites.push_back(std::move(site));
    };

    // config.getX("key", ...) reads.
    for (const char *getter :
         {"getString", "getInt", "getNarrowInt", "getDouble", "getBool",
          "has"}) {
        std::size_t pos = 0;
        while ((pos = findWord(masked, getter, pos)) !=
               std::string::npos) {
            std::size_t at = pos;
            pos += std::char_traits<char>::length(getter);
            if (at == 0 || masked[at - 1] != '.')
                continue;
            std::size_t paren = skipWs(masked, pos);
            if (paren >= masked.size() || masked[paren] != '(')
                continue;
            // Skip whitespace in the RAW text: the masked copy has
            // blanked the literal itself to spaces.
            if (auto key = literalAt(raw, skipWs(raw, paren + 1)))
                record(*key, at);
        }
    }

    // helper(args, "key") / helper(config, "key") reads — the
    // validated-read wrappers fromArgs uses.
    for (const char *store : {"args", "config"}) {
        std::size_t pos = 0;
        while ((pos = findWord(masked, store, pos)) !=
               std::string::npos) {
            std::size_t at = pos;
            pos += std::char_traits<char>::length(store);
            std::size_t back = at;
            while (back > 0 &&
                   std::isspace(static_cast<unsigned char>(
                       masked[back - 1])))
                --back;
            if (back == 0 || (masked[back - 1] != '(' &&
                              masked[back - 1] != ','))
                continue;
            std::size_t comma = skipWs(masked, pos);
            if (comma >= masked.size() || masked[comma] != ',')
                continue;
            if (auto key = literalAt(raw, skipWs(raw, comma + 1)))
                record(*key, at);
        }
    }
}

/** RAW body text of usageText(), if this file defines it. */
std::optional<std::string>
usageTextBody(const FileData &file)
{
    const std::string &masked = file.masked;
    std::size_t pos = 0;
    while ((pos = findWord(masked, "usageText", pos)) !=
           std::string::npos) {
        std::size_t paren = skipWs(masked, pos + 9);
        pos += 9;
        if (paren >= masked.size() || masked[paren] != '(')
            continue;
        std::size_t closeParen = matchBracket(masked, paren);
        if (closeParen == std::string::npos)
            continue;
        std::size_t brace = skipWs(masked, closeParen + 1);
        if (brace >= masked.size() || masked[brace] != '{')
            continue;
        std::size_t end = matchBracket(masked, brace);
        if (end == std::string::npos)
            continue;
        return file.raw.substr(brace + 1, end - brace - 1);
    }
    return std::nullopt;
}

// ---------------------------------------------------------------
// durability-io: the host-I/O seam must see every durable byte.
// ---------------------------------------------------------------

// Files that own a durability path: every byte they persist must
// flow through the host-I/O seam (sim/host_io.hh) so fault
// injection, op recording and the crash-replay harness see it
// (DESIGN.md §4k). runner.cc is deliberately absent: its
// pre-sweep writability probe opens a throwaway std::ofstream on
// purpose, before any durable state exists.
const std::set<std::string> &
durabilityFiles()
{
    static const std::set<std::string> files = {
        "src/sim/checkpoint.cc",
        "src/core/journal.cc",
        "src/core/system.cc",
        "src/serve/checkpoint_pool.cc",
    };
    return files;
}

void
scanDurabilityIo(const FileData &file,
                 std::vector<Finding> &findings)
{
    if (file.path.compare(0, 4, "src/") != 0)
        return;
    if (file.path.compare(0, 15, "src/sim/host_io") == 0)
        return;  // the seam itself wraps the raw primitives
    const std::string &masked = file.masked;

    if (durabilityFiles().count(file.path)) {
        // Raw qualified ::rename()/::remove() calls (std:: or
        // fs::) dodge fault injection and the op log entirely.
        for (const std::string &raw : {std::string("rename"),
                                       std::string("remove")}) {
            std::size_t pos = 0;
            while ((pos = findWord(masked, raw, pos)) !=
                   std::string::npos) {
                std::size_t at = pos;
                pos += raw.size();
                if (at < 2 || masked[at - 1] != ':' ||
                    masked[at - 2] != ':')
                    continue;
                std::size_t paren = skipWs(masked, at + raw.size());
                if (paren >= masked.size() || masked[paren] != '(')
                    continue;
                findings.push_back(
                    {file.path, lineOfOffset(masked, at),
                     "durability-io",
                     "raw ::" + raw +
                         "() call in a durability path bypasses "
                         "the host-I/O seam; use hostRename/"
                         "hostRemove (sim/host_io.hh) so fault "
                         "injection and crash replay see the "
                         "operation"});
            }
        }
        // Direct write channels: anything persisted through an
        // ofstream or FILE* is invisible to the seam.
        for (const std::string &raw : {std::string("ofstream"),
                                       std::string("fopen")}) {
            std::size_t pos = 0;
            while ((pos = findWord(masked, raw, pos)) !=
                   std::string::npos) {
                findings.push_back(
                    {file.path, lineOfOffset(masked, pos),
                     "durability-io",
                     raw +
                         " in a durability path bypasses the "
                         "host-I/O seam; write through HostFile or "
                         "hostWriteFileAtomic (sim/host_io.hh)"});
                pos += raw.size();
            }
        }
    }

    // Discarded IoStatus anywhere in src/: a seam call in
    // statement position throws the error away, so a failed
    // rename/remove strands files silently instead of degrading
    // loudly. hostRemoveBestEffort is the sanctioned discard for
    // cleanup of files that may not exist.
    static const char *const seamCalls[] = {
        "hostWriteFileAtomic", "hostRename", "hostRemove",
        "hostSyncDir"};
    for (const char *callName : seamCalls) {
        const std::string call = callName;
        std::size_t pos = 0;
        while ((pos = findWord(masked, call, pos)) !=
               std::string::npos) {
            std::size_t at = pos;
            pos += call.size();
            if (at + call.size() >= masked.size() ||
                masked[at + call.size()] != '(')
                continue;  // a mention, not a call site
            std::size_t back = at;
            while (back > 0 &&
                   std::isspace(static_cast<unsigned char>(
                       masked[back - 1])))
                --back;
            char prev = back == 0 ? ';' : masked[back - 1];
            if (prev != ';' && prev != '{' && prev != '}' &&
                prev != ')')
                continue;  // value is assigned, tested or returned
            findings.push_back(
                {file.path, lineOfOffset(masked, at),
                 "durability-io",
                 "the IoStatus returned by " + call +
                     "() is discarded; check it (or use "
                     "hostRemoveBestEffort for sanctioned cleanup) "
                     "so durability failures degrade loudly "
                     "instead of stranding files"});
        }
    }
}

} // namespace

const std::map<std::string, std::set<std::string>> &
layerDag()
{
    // Declared dependency graph of src/ (DESIGN.md §4i): each layer
    // may include itself plus the listed layers. sim is the bottom
    // (checkpoint primitives, counters, events, logging); core is
    // the orchestration top and the only layer allowed to see
    // everything.
    static const std::map<std::string, std::set<std::string>> dag = {
        {"sim", {}},
        {"power", {"sim"}},
        {"mem", {"sim"}},
        {"disk", {"sim"}},
        {"cpu", {"sim", "mem"}},
        {"os", {"sim", "mem", "disk", "cpu", "power"}},
        {"workload", {"sim", "cpu", "os"}},
        {"core",
         {"sim", "power", "mem", "disk", "cpu", "os", "workload"}},
        {"serve",
         {"sim", "power", "mem", "disk", "cpu", "os", "workload",
          "core"}},
    };
    return dag;
}

std::vector<Finding>
analyzeSources(const AnalyzerInput &input)
{
    std::vector<Finding> findings;
    auto report = [&findings](const std::string &path, int line,
                              const char *rule,
                              const std::string &message) {
        findings.push_back({path, line, rule, message});
    };

    std::map<std::string, ClassRecord> classes;
    std::map<std::string, std::pair<BodyInfo, BodyInfo>> helperPairs;
    std::vector<KeySite> keySites;
    std::optional<std::string> usageText;

    for (const SourceText &source : input.files) {
        FileData file;
        file.path = source.path;
        file.raw = source.text;
        file.masked = maskCommentsAndStrings(source.text);
        {
            std::size_t start = 0;
            while (start <= file.raw.size()) {
                std::size_t nl = file.raw.find('\n', start);
                if (nl == std::string::npos) {
                    file.rawLines.push_back(file.raw.substr(start));
                    break;
                }
                file.rawLines.push_back(
                    file.raw.substr(start, nl - start));
                start = nl + 1;
            }
        }

        // --- layer-dag -----------------------------------------
        std::string layer = layerOf(file.path);
        if (!layer.empty() && layerDag().count(layer)) {
            const std::set<std::string> &allowed =
                layerDag().at(layer);
            std::size_t pos = 0;
            while ((pos = file.raw.find("#include \"", pos)) !=
                   std::string::npos) {
                // A masked line keeps "#include" only when the
                // directive is live (not commented out).
                if (file.masked.compare(pos, 8, "#include") != 0) {
                    pos += 10;
                    continue;
                }
                std::size_t open = pos + 10;
                std::size_t close = file.raw.find('"', open);
                pos = close == std::string::npos ? file.raw.size()
                                                 : close + 1;
                if (close == std::string::npos)
                    break;
                std::string target =
                    file.raw.substr(open, close - open);
                std::size_t slash = target.find('/');
                if (slash == std::string::npos)
                    continue;  // same-directory include
                std::string targetLayer = target.substr(0, slash);
                if (!layerDag().count(targetLayer) ||
                    targetLayer == layer ||
                    allowed.count(targetLayer))
                    continue;
                report(file.path, lineOfOffset(file.raw, open),
                       "layer-dag",
                       "'" + layer + "' may not include '" + target +
                           "': the declared layer DAG only allows " +
                           layer + " -> {own dir" +
                           [&allowed] {
                               std::string list;
                               for (const std::string &a : allowed)
                                   list += ", " + a;
                               return list;
                           }() +
                           "} (DESIGN.md §4i)");
            }
        }

        // --- structure for the checkpoint rules ----------------
        std::vector<std::pair<std::size_t, std::size_t>> ranges;
        std::map<std::string, std::string> atRange;
        scanClasses(file, classes, ranges, atRange);
        scanBodies(file, ranges, atRange, classes, helperPairs);

        // --- config keys ---------------------------------------
        if (layer.empty() ? file.path.compare(0, 4, "src/") == 0
                          : true)
            scanConfigKeys(file, keySites);
        if (!usageText)
            usageText = usageTextBody(file);

        // --- durability-io -------------------------------------
        scanDurabilityIo(file, findings);
    }

    // --- checkpoint-coverage -----------------------------------
    for (const auto &[name, record] : classes) {
        if (!record.declaresSave || !record.declaresLoad)
            continue;
        if (!record.save.found && !record.load.found)
            continue;  // bodies live outside the scanned tree
        const std::string &saveBody = record.save.maskedBody;
        const std::string &loadBody = record.load.maskedBody;
        for (const MemberInfo &member : record.members) {
            if (member.annotated)
                continue;
            if (containsWord(saveBody, member.name) ||
                containsWord(loadBody, member.name))
                continue;
            report(member.path, member.line,
                   "checkpoint-coverage",
                   name + "::" + member.name +
                       " is never referenced in saveState or "
                       "loadState; serialize it, or annotate the "
                       "declaration with \"// ckpt:derived\" if it "
                       "is recomputed or configuration-wired");
        }
    }

    // --- save-load-symmetry ------------------------------------
    auto compareSeq = [&report](const std::string &what,
                                const BodyInfo &save,
                                const BodyInfo &load) {
        std::size_t n =
            std::min(save.calls.size(), load.calls.size());
        for (std::size_t i = 0; i < n; ++i) {
            if (save.calls[i].type == load.calls[i].type)
                continue;
            report(load.path, load.calls[i].line,
                   "save-load-symmetry",
                   what + ": save writes '" + save.calls[i].type +
                       "' at sequence position " +
                       std::to_string(i + 1) + " (line " +
                       std::to_string(save.calls[i].line) +
                       ") but load reads '" + load.calls[i].type +
                       "'");
            return;
        }
        if (save.calls.size() != load.calls.size()) {
            bool saveLonger = save.calls.size() > load.calls.size();
            const BodyInfo &longer = saveLonger ? save : load;
            report(longer.path, longer.calls[n].line,
                   "save-load-symmetry",
                   what + ": save makes " +
                       std::to_string(save.calls.size()) +
                       " stream call(s) but load makes " +
                       std::to_string(load.calls.size()) +
                       "; the sequences must mirror each other");
        }
    };
    for (const auto &[name, record] : classes) {
        if (record.save.found && record.load.found) {
            compareSeq(name + "::saveState/loadState", record.save,
                       record.load);
        } else if (record.save.found != record.load.found) {
            const BodyInfo &present =
                record.save.found ? record.save : record.load;
            report(present.path, present.line, "save-load-symmetry",
                   name + " defines " +
                       (record.save.found ? "saveState"
                                          : "loadState") +
                       " but its counterpart was not found in the "
                       "scanned tree");
        }
    }
    for (const auto &[key, pair] : helperPairs) {
        std::string suffix = key.substr(key.find('#') + 1);
        if (pair.first.found && pair.second.found) {
            compareSeq("save" + suffix + "/load" + suffix,
                       pair.first, pair.second);
        } else if (pair.first.found != pair.second.found) {
            const BodyInfo &present =
                pair.first.found ? pair.first : pair.second;
            report(present.path, present.line, "save-load-symmetry",
                   (pair.first.found ? "save" : "load") + suffix +
                       " has no matching " +
                       (pair.first.found ? "load" : "save") +
                       suffix + " in the same file");
        }
    }

    // --- config-key --------------------------------------------
    std::set<std::string> reportedDoc, reportedUsage;
    for (const KeySite &site : keySites) {
        const std::string needle = site.key + "=";
        if (!input.experimentsDoc.empty() &&
            input.experimentsDoc.find(needle) ==
                std::string::npos &&
            reportedDoc.insert(site.key).second) {
            report(site.path, site.line, "config-key",
                   "configuration key '" + site.key +
                       "' is read here but never documented as '" +
                       needle + "' in EXPERIMENTS.md");
        }
        if (site.runnerKey && usageText &&
            usageText->find(needle) == std::string::npos &&
            reportedUsage.insert(site.key).second) {
            report(site.path, site.line, "config-key",
                   "runner key '" + site.key +
                       "' is validated in fromArgs but missing "
                       "from usageText()");
        }
    }

    std::sort(findings.begin(), findings.end(), tools::findingLess);
    return findings;
}

} // namespace softwatt::analyze
