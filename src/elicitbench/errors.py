"""Exception types shared across pipeline stages.

Each class carries the process exit code the CLI maps it to.
"""

EXIT_INTERRUPTED = 130  # 128 + SIGINT, the shell's code for a Ctrl-C


class ElicitBenchError(Exception):
    exit_code = 1


class ConfigError(ElicitBenchError):
    """Bad configuration: unparseable config file, invalid spec, missing API key."""

    exit_code = 2


class InputError(ElicitBenchError):
    """Bad input data: empty dataset, out-of-range argument."""

    exit_code = 2


class SchemaError(InputError):
    """Input data does not match the expected table or record schema."""

    exit_code = 2


class StageDependencyError(ElicitBenchError):
    """An upstream pipeline artifact is missing."""

    exit_code = 3
