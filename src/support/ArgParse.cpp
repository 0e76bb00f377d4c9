//===- support/ArgParse.cpp - Flags, subcommands, auto-usage -----------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"

#include <cstdlib>

using namespace vega;

ArgParse::ArgParse(std::string Prog, std::string Overview)
    : Prog(std::move(Prog)), Overview(std::move(Overview)) {}

void ArgParse::addFlag(const std::string &Name, const std::string &Help) {
  Flags[Name] = FlagDecl{Help, "", ""};
  FlagOrder.push_back(Name);
}

void ArgParse::addOption(const std::string &Name, const std::string &ValueName,
                         const std::string &Help, std::string Default) {
  Flags[Name] = FlagDecl{Help, ValueName, std::move(Default)};
  FlagOrder.push_back(Name);
}

void ArgParse::addCommand(const std::string &Name, const std::string &ArgSpec,
                          const std::string &Help, size_t MinArgs,
                          size_t MaxArgs) {
  Commands[Name] = CommandDecl{ArgSpec, Help, MinArgs, MaxArgs,
                               CommandOrder.size()};
  CommandOrder.push_back(Name);
}

Status ArgParse::parse(int Argc, char **Argv) {
  std::vector<std::string> Args;
  for (int I = 1; I < Argc; ++I)
    Args.push_back(Argv[I]);
  return parse(Args);
}

Status ArgParse::parse(const std::vector<std::string> &Args) {
  Command.clear();
  Positionals.clear();
  Passthrough.clear();
  Values.clear();

  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg.size() >= 2 && Arg[0] == '-' && Arg[1] == '-') {
      std::string Name = Arg.substr(2);
      std::string Value;
      bool HasValue = false;
      size_t Eq = Name.find('=');
      if (Eq != std::string::npos) {
        Value = Name.substr(Eq + 1);
        Name = Name.substr(0, Eq);
        HasValue = true;
      }
      auto It = Flags.find(Name);
      if (It == Flags.end()) {
        if (PassthroughUnknown) {
          Passthrough.push_back(Arg);
          continue;
        }
        return Status::invalidArgument("unknown flag '--" + Name + "'");
      }
      const FlagDecl &Decl = It->second;
      if (Decl.ValueName.empty()) {
        if (HasValue)
          return Status::invalidArgument("flag '--" + Name +
                                         "' takes no value");
        Values[Name] = "1";
        continue;
      }
      if (!HasValue) {
        // `--jobs 4` form: the value is the next argument.
        if (I + 1 >= Args.size())
          return Status::invalidArgument("flag '--" + Name +
                                         "' requires a value");
        Value = Args[++I];
      }
      Values[Name] = Value;
      continue;
    }
    if (Command.empty() && !Commands.empty()) {
      auto It = Commands.find(Arg);
      if (It == Commands.end())
        return Status::invalidArgument("unknown command '" + Arg + "'");
      Command = Arg;
      continue;
    }
    Positionals.push_back(Arg);
  }

  if (!Commands.empty()) {
    if (Command.empty())
      return Status::invalidArgument("no command given");
    const CommandDecl &Decl = Commands.at(Command);
    if (Positionals.size() < Decl.MinArgs)
      return Status::invalidArgument("command '" + Command +
                                     "' needs at least " +
                                     std::to_string(Decl.MinArgs) +
                                     " argument(s)");
    if (Positionals.size() > Decl.MaxArgs)
      return Status::invalidArgument("command '" + Command +
                                     "' takes at most " +
                                     std::to_string(Decl.MaxArgs) +
                                     " argument(s)");
  }
  return Status::ok();
}

bool ArgParse::has(const std::string &Name) const {
  return Values.count(Name) != 0;
}

const std::string &ArgParse::get(const std::string &Name) const {
  auto It = Values.find(Name);
  if (It != Values.end())
    return It->second;
  static const std::string Empty;
  auto Decl = Flags.find(Name);
  return Decl != Flags.end() ? Decl->second.Default : Empty;
}

int ArgParse::getInt(const std::string &Name, int Default) const {
  const std::string &V = get(Name);
  if (V.empty())
    return Default;
  char *End = nullptr;
  long N = std::strtol(V.c_str(), &End, 10);
  if (End == V.c_str() || *End != '\0')
    return Default;
  return static_cast<int>(N);
}

std::string ArgParse::usage() const {
  std::string Out = Overview.empty() ? "" : Overview + "\n\n";
  Out += "usage: " + Prog;
  if (!FlagOrder.empty())
    Out += " [flags]";
  if (!Commands.empty())
    Out += " <command> [args]";
  Out += "\n";
  if (!FlagOrder.empty()) {
    Out += "\nflags:\n";
    for (const std::string &Name : FlagOrder) {
      const FlagDecl &Decl = Flags.at(Name);
      std::string Left = "  --" + Name;
      if (!Decl.ValueName.empty())
        Left += "=<" + Decl.ValueName + ">";
      Out += Left;
      if (Left.size() < 28)
        Out += std::string(28 - Left.size(), ' ');
      else
        Out += "  ";
      Out += Decl.Help;
      if (!Decl.Default.empty())
        Out += " (default: " + Decl.Default + ")";
      Out += "\n";
    }
  }
  if (!CommandOrder.empty()) {
    Out += "\ncommands:\n";
    for (const std::string &Name : CommandOrder) {
      const CommandDecl &Decl = Commands.at(Name);
      std::string Left = "  " + Name;
      if (!Decl.ArgSpec.empty())
        Left += " " + Decl.ArgSpec;
      Out += Left;
      if (Left.size() < 34)
        Out += std::string(34 - Left.size(), ' ');
      else
        Out += "  ";
      Out += Decl.Help + "\n";
    }
  }
  return Out;
}
