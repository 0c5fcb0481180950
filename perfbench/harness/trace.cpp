#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::string_view span_layer(std::string_view name) {
  const std::size_t dot = name.find('.');
  return dot == std::string_view::npos ? name : name.substr(0, dot);
}

std::uint32_t SpanRecorder::begin(std::string_view name, std::uint64_t item) {
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.item = item;
  span.start_ns = now_ns();
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(std::uint32_t id) {
  spans_[id].end_ns = now_ns();
  // Spans close innermost first; tolerate a mismatched close by unwinding
  // to it so one mistake cannot corrupt every later parent link.
  while (!open_.empty()) {
    const std::uint32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void SpanRecorder::add(std::string_view name, std::uint64_t item,
                       std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.item = item;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"spans\":[", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,\"item\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}",
                 i == 0 ? "" : ",", i, s.name.c_str(),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.item),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent && s.parent < spans.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t cursor = spans[i].start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, spans[i].end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans) {
  std::map<std::string, NameTotals> totals;
  for (const Span& span : spans) {
    NameTotals& t = totals[span.name];
    ++t.count;
    t.total_ns += span.duration_ns();
    t.durations_ns.push_back(span.duration_ns());
  }
  return totals;
}

double Reconciliation::gap_ratio() const {
  if (total_ns <= 0) return 1.0;
  const std::int64_t gap = attributed_ns + residual_ns - total_ns;
  return static_cast<double>(gap < 0 ? -gap : gap) / static_cast<double>(total_ns);
}

Reconciliation reconcile(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  Reconciliation r;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == kNoParent) r.total_ns += spans[i].duration_ns();
    const std::string layer(span_layer(spans[i].name));
    if (layer == "bench" || layer == "probe") {
      r.residual_ns += self[i];
    } else {
      r.attributed_ns += self[i];
      r.layer_self_ns[layer] += self[i];
    }
  }
  return r;
}

}  // namespace perfbench
