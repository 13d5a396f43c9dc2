#include "trace.hh"

#include <algorithm>
#include <ostream>

#include "core/json_writer.hh"

namespace perfbench
{

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

int
SpanRecorder::begin(std::string name)
{
    if (!on)
        return -1;
    Span span;
    span.name = std::move(name);
    span.parent = open.empty() ? -1 : open.back();
    span.start = now();
    span.end = span.start;
    all.push_back(std::move(span));
    open.push_back(int(all.size() - 1));
    return open.back();
}

void
SpanRecorder::end(int id)
{
    if (id < 0)
        return;
    all[std::size_t(id)].end = now();
    // Close @p id and anything left open inside it.
    while (!open.empty()) {
        int top = open.back();
        open.pop_back();
        if (top == id)
            break;
        all[std::size_t(top)].end = all[std::size_t(id)].end;
    }
}

int
SpanRecorder::add(Span span)
{
    all.push_back(std::move(span));
    return int(all.size() - 1);
}

double
SpanRecorder::selfSeconds(std::size_t i) const
{
    const Span &self = all.at(i);
    std::vector<std::pair<double, double>> covered;
    for (const Span &s : all) {
        if (s.parent != int(i))
            continue;
        double lo = std::max(s.start, self.start);
        double hi = std::min(s.end, self.end);
        if (hi > lo)
            covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0;
    double reach = self.start;
    for (auto [lo, hi] : covered) {
        lo = std::max(lo, reach);
        if (hi > lo) {
            busy += hi - lo;
            reach = hi;
        }
    }
    return (self.end - self.start) - busy;
}

std::size_t
SpanRecorder::rootOf(std::size_t i) const
{
    while (all.at(i).parent >= 0)
        i = std::size_t(all[i].parent);
    return i;
}

void
SpanRecorder::writeChromeTrace(
    std::ostream &out,
    const std::vector<std::pair<std::string, std::string>> &metadata)
    const
{
    {
        softwatt::JsonWriter json(out, 1);
        json.beginObject();
        json.member("displayTimeUnit", "ms");
        json.key("otherData");
        json.beginObject();
        for (const auto &[key, value] : metadata)
            json.member(key, value);
        json.endObject();
        json.key("traceEvents");
        json.beginArray();
        for (std::size_t i = 0; i < all.size(); ++i) {
            const Span &s = all[i];
            json.beginObject();
            json.member("name", s.name);
            json.member("cat", s.name.substr(0, s.name.find('.')));
            json.member("ph", "X");
            json.member("pid", 1);
            json.member("tid", 1);
            json.member("ts", s.start * 1e6);
            json.member("dur", (s.end - s.start) * 1e6);
            json.key("args");
            json.beginObject();
            json.member("id", std::uint64_t(i));
            json.member("parent", std::int64_t(s.parent));
            json.member("self_us", selfSeconds(i) * 1e6);
            json.endObject();
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    out << '\n';
}

} // namespace perfbench
