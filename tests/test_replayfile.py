import json

import pytest

from epvr import descriptor, refine, replayfile
from epvr.errors import FileFormat

READERS = [
    (descriptor.MOTION_FORMAT, descriptor.read_motion_file),
    (refine.KEYPOINT_FORMAT, refine.read_keypoint_file),
]


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("fmt, read", READERS)
def test_header_names_the_format(tmp_path, fmt, read):
    path = tmp_path / "empty.jsonl"
    with replayfile.ReplayWriter(path, fmt):
        pass
    doc = json.loads(path.read_text())
    assert doc == replayfile.header(fmt) and doc["format"] == fmt
    assert read(path) == []


@pytest.mark.parametrize("fmt, read", READERS)
def test_other_format_is_rejected(tmp_path, fmt, read):
    other = next(f for f, _ in READERS if f != fmt)
    for head in [json.dumps(replayfile.header(other)), "[1, 2]", "not json"]:
        path = tmp_path / "other.jsonl"
        _write(path, [head])
        with pytest.raises(FileFormat):
            read(path)


@pytest.mark.parametrize("fmt, read", READERS)
@pytest.mark.parametrize("bad", ["not json", "{}", "[1]", '{"t": 0.0, "Z": "x", "zeta": [1]}'])
def test_bad_record_names_its_line(tmp_path, fmt, read, bad):
    path = tmp_path / "bad.jsonl"
    _write(path, [json.dumps(replayfile.header(fmt)), "", bad])
    with pytest.raises(FileFormat, match=rf"bad\.jsonl:3: bad frame record"):
        read(path)
