#include "sentry/verdict.h"

#include "json/json.h"

namespace ctc::sentry {

void VerdictRecord::append_jsonl(std::string& out) const {
  Json line = Json::object();
  line.as_object().reserve(14);
  line.set("sentry_verdict_schema", kVerdictSchemaVersion);
  line.set("channel", channel);
  line.set("frame", frame_index);
  line.set("stream_pos", stream_position);
  line.set("frame_samples", frame_samples);
  line.set("frame_ok", frame_ok);
  line.set("points", points);
  line.set("valid", valid);
  line.set("de2", de2);
  line.set("c40", c40);
  line.set("c42", c42);
  line.set("is_attack", is_attack);
  line.set("queue_depth", queue_depth);
  line.set("dropped", dropped_before);
  line.dump_to(out);
  out += '\n';
}

}  // namespace ctc::sentry
