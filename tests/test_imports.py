import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qexec").glob("*.py"))
# The runtime dependencies that pyproject.toml declares, by import name.
DECLARED = {"numpy", "yaml", "requests"}


def imported_packages(path: Path) -> set[str]:
    """The top-level package of every absolute import in a source file."""
    packages = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_imports_only_the_standard_library_and_declared_dependencies():
    assert len(SOURCES) > 1
    undeclared = {
        path.name: sorted(imported_packages(path) - sys.stdlib_module_names - DECLARED)
        for path in SOURCES
    }
    assert {name: packages for name, packages in undeclared.items() if packages} == {}


# The job service and a run on local providers never make an HTTP request, so
# they must not pay for importing an HTTP client: only a remote_http provider
# loads requests. Each case runs in a fresh interpreter, whose sys.modules
# holds only what that case imported.
LOCAL_ONLY = (
    "from qexec import NoiseSpec, ProviderConfig, QuantumExecutor\n"
    "QuantumExecutor(providers=[\n"
    "    ProviderConfig('ideal', 'local_ideal'),\n"
    "    ProviderConfig('noisy', 'local_noisy', noise=NoiseSpec(0.05)),\n"
    "    ProviderConfig('mock', 'mock_delay', delay=0.1),\n"
    "])\n"
)
WITH_REMOTE = (
    "from qexec import ProviderConfig, VirtualProvider\n"
    "VirtualProvider().register_provider(\n"
    "    ProviderConfig('remote', 'remote_http', endpoint='http://127.0.0.1:9')\n"
    ")\n"
)


def loads_requests(code: str) -> bool:
    """Whether running ``code`` in a fresh interpreter imports requests."""
    path = [str(SOURCES[0].parent.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    probe = code + "\nimport sys\nprint('requests' in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip() == "True"


@pytest.mark.parametrize(
    "code",
    ["import qexec.server", "import qexec", LOCAL_ONLY],
    ids=["job_service", "package", "local_providers"],
)
def test_requests_is_not_loaded_without_a_remote_provider(code):
    assert not loads_requests(code)


def test_requests_is_loaded_once_a_remote_provider_is_registered():
    assert loads_requests(WITH_REMOTE)
