/// \file command_recorder.hpp
/// Test-only CommandObserver that keeps every command a controller
/// issues, in issue order, for tests that compare or count them.
#pragma once

#include <vector>

#include "dram/controller.hpp"

namespace tbi::dram {

class CommandRecorder final : public CommandObserver {
 public:
  void on_command(const Command& cmd) override { commands.push_back(cmd); }
  std::vector<Command> commands;
};

}  // namespace tbi::dram
