"""The help pages and usage errors of the command line, as click 8 lays
them out for this CLI (frozen in tests/test_cli_golden.py).

cli.py imports this module only when it prints a help page or a usage
error, so a job that does neither does not compile it. A command's path
is given as its words, the program's name first (None: the name that
started the interpreter); a width of None is the terminal's.
"""

import os
import shutil
import sys
import textwrap


def help_page(cmd, words, width):
    """The --help page of cmd, a Command or the Group, whose help text is one line."""
    path, width = _path(words), _width(width)
    options = "Options:\n" + _rows([_record(o) for o in cmd.options], width)
    page = "\n\n".join([usage_line(cmd, path, width), _fill(cmd.help, width, "  ", "  "), options])
    commands = getattr(cmd, "commands", None)
    if commands:
        limit = width - 6 - max(map(len, commands))
        rows = [(name, _short_help(commands[name].help, limit)) for name in sorted(commands)]
        page += "\n\nCommands:\n" + _rows(rows, width)
    return page


def usage_error(cmd, words, width, error):
    """The usage line, the hint to --help, and the error with its "Did you mean"."""
    path, message = _path(words), str(error)
    if error.close:
        message = _suggest(message, *error.close)
    return "%s\nTry '%s --help' for help.\n\nError: %s\n" % (usage_line(cmd, path, _width(width)), path, message)


def usage_line(cmd, path, width):
    prefix = "Usage: %s " % path
    if width >= len(prefix) + 20:
        return _fill(cmd.usage, width, prefix, " " * len(prefix))
    return prefix + "\n" + _fill(cmd.usage, width, " " * 11, " " * 11)


def _path(words):
    return " ".join([words[0] or _program_name(), *words[1:]])


def _width(width):
    return width or max(min(shutil.get_terminal_size().columns, 80) - 2, 50)


def _program_name():
    """`python -m freedf.cli` when run as a module, else the script's name."""
    name = os.path.basename(sys.argv[0])
    package = getattr(sys.modules["__main__"], "__package__", None)
    return "python -m %s.%s" % (package, os.path.splitext(name)[0]) if package else name


def _suggest(message, name, known):
    """message, and the names in known close to name, as click words it."""
    from difflib import get_close_matches

    close = sorted(get_close_matches(name, known))
    if len(close) > 1:
        return "%s (Did you mean one of: %s?)" % (message, ", ".join(map(repr, close)))
    return "%s Did you mean %r?" % (message, close[0]) if close else message


def _record(option):
    """The option's row in the help page."""
    choices = getattr(option.type, "choices", None)
    metavar = "[%s]" % "|".join(choices) if choices else option.TYPE_NAMES[option.type].upper()
    term = option.flag if option.is_flag else "%s %s" % (option.flag, metavar)
    return term, "  ".join(filter(None, [option.help, "[required]" * option.required]))


def _fill(text, width, first, later):
    return textwrap.fill(text, width, initial_indent=first, subsequent_indent=later, replace_whitespace=False)


def _rows(rows, width):
    """A definition list as click writes it: the terms in a column up to
    30 wide, each text wrapped beside its term."""
    col = min(max(len(term) for term, _ in rows), 30) + 2
    out = []
    for term, text in rows:
        lines = textwrap.wrap(text, max(width - col - 2, 10), replace_whitespace=False)
        gap = " " * (col - len(term)) if len(term) <= col - 2 else "\n" + " " * (col + 2)
        out.append("  " + term + (gap + ("\n" + " " * (col + 2)).join(lines) if lines else ""))
    return "\n".join(out)


def _short_help(text, limit):
    """A command's line in the group's help: its first sentence, or as
    many words as fit in limit, then "...", by click's rule."""
    words = text.split()
    total = -1
    for i, word in enumerate(words):
        total += len(word) + 1
        if total > limit:
            break
        if word.endswith("."):
            return " ".join(words[: i + 1])
        if total == limit and i != len(words) - 1:
            break
    else:
        return " ".join(words)
    total += 3
    while i > 0:
        total -= len(words[i]) + 1
        if total <= limit:
            break
        i -= 1
    return " ".join(words[:i]) + "..."
