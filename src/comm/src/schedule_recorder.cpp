#include "mbd/comm/schedule_recorder.hpp"

#include <sstream>

namespace mbd::comm {

std::string_view schedule_event_kind_name(ScheduleEventKind k) {
  switch (k) {
    case ScheduleEventKind::Send: return "send";
    case ScheduleEventKind::Recv: return "recv";
    case ScheduleEventKind::CollEnter: return "coll_enter";
    case ScheduleEventKind::NbPost: return "nb_post";
    case ScheduleEventKind::NbDone: return "nb_done";
    case ScheduleEventKind::NbCancel: return "nb_cancel";
    case ScheduleEventKind::StepEnd: return "step_end";
    case ScheduleEventKind::Compute: return "compute";
  }
  return "?";
}

std::string ScheduleEvent::describe() const {
  std::ostringstream os;
  switch (kind) {
    case ScheduleEventKind::Send:
      os << "send(to=" << peer << ", tag=" << tag << ", bytes=" << bytes
         << ", class=" << coll_name(coll) << ')';
      break;
    case ScheduleEventKind::Recv:
      os << "recv(from=" << peer << ", tag=" << tag << ", bytes=" << bytes
         << ')';
      break;
    case ScheduleEventKind::CollEnter:
      os << "enter " << desc.describe() << " [comm_rank=" << comm_rank << '/'
         << comm_size << ", context=" << context << ']';
      break;
    case ScheduleEventKind::NbPost:
      os << "nb_post(token=" << token << ", " << what << ')';
      break;
    case ScheduleEventKind::NbDone:
      os << "nb_done(token=" << token << ')';
      break;
    case ScheduleEventKind::NbCancel:
      os << "nb_cancel(token=" << token << ')';
      break;
    case ScheduleEventKind::StepEnd:
      os << "step_end(iteration=" << token << ')';
      break;
    case ScheduleEventKind::Compute:
      os << "compute(seconds=" << seconds << ')';
      break;
  }
  return os.str();
}

}  // namespace mbd::comm
