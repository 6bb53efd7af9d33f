"""The README's library session runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_session_runs():
    (session,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    namespace: dict = {}
    exec(session, namespace)
    assert namespace["inst"].is_chain_map() is True
